package gate

import (
	"fmt"
	"testing"

	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// The differential test drives every entry point of the bootstrap evaluator
// and of the gate engine against an oracle that never touches a transform:
// key generation, external products and blind rotation are recomputed in the
// coefficient domain with torus.AddMulNaive. Outputs must agree bit for bit
// — masks, body and tracked variance — which is what lets the one engine
// replace the two it succeeded without moving any ciphertext.

// oracle is an independently generated key set: the same random draws as
// boot.GenerateKeys, with the bootstrapping key kept as plain TGSW samples
// and the key-switching key as one separately allocated sample per row,
// digit 0 included.
type oracle struct {
	p  *params.GateParams
	bk []*tgsw.Sample
	ks *rowSwitchKey
}

// rowSwitchKey is the key-switching key in its retired pointer form:
// rows[i][j][v] encrypts v·s_i/base^(j+1) under the gate key, and the v = 0
// rows are explicit noiseless zeros, so a switch subtracts one row per
// digit with no branch.
type rowSwitchKey struct {
	levels, baseLog int
	rows            [][][]*lwe.Sample
}

// newRowSwitchKey encrypts the rows in the (i, j, v) order boot.GenerateKeys
// draws them in.
func newRowSwitchKey(inKey, outKey *lwe.Key, levels, baseLog int, alpha float64, rng *trand.Source) *rowSwitchKey {
	ks := &rowSwitchKey{levels: levels, baseLog: baseLog, rows: make([][][]*lwe.Sample, inKey.N)}
	for i := range ks.rows {
		ks.rows[i] = make([][]*lwe.Sample, levels)
		for j := range ks.rows[i] {
			for v := 0; v < 1<<baseLog; v++ {
				s := lwe.NewSample(outKey.N)
				if v == 0 {
					s.NoiselessTrivial(0)
				} else {
					mu := uint32(v) * uint32(inKey.Bits[i]) << (32 - (j+1)*baseLog)
					lwe.Encrypt(s, mu, alpha, outKey, rng)
				}
				ks.rows[i][j] = append(ks.rows[i][j], s)
			}
		}
	}
	return ks
}

// apply is the per-row key switch: round each coefficient to t·basebit
// bits, then subtract the row of every digit from the most significant end.
func (ks *rowSwitchKey) apply(dst, src *lwe.Sample) {
	prec := uint(ks.levels * ks.baseLog)
	var roundBit uint32
	if prec < 32 {
		roundBit = uint32(1) << (31 - prec)
	}
	mask := uint32(1)<<ks.baseLog - 1
	dst.NoiselessTrivial(src.B)
	for i, a := range src.A {
		ai := a + roundBit
		for j := 0; j < ks.levels; j++ {
			digit := (ai >> (32 - uint(j+1)*uint(ks.baseLog))) & mask
			dst.SubFrom(ks.rows[i][j][digit])
		}
	}
}

// newOracle replays boot.GenerateKeys on rng, draw for draw, multiplying
// masks by the ring key with the naive convolution.
func newOracle(p *params.GateParams, rng *trand.Source) *oracle {
	gp := tgsw.Params{Levels: p.DecompLevels, BaseLog: p.DecompBaseLog}
	lweKey := lwe.NewKey(p.LWEDimension, p.LWEStdev, rng)
	ring := tlwe.NewKey(p.PolyDegree, p.RingCount, p.TLWEStdev, rng)
	o := &oracle{p: p, bk: make([]*tgsw.Sample, p.LWEDimension)}
	for i := range o.bk {
		g := tgsw.NewSample(p.PolyDegree, p.RingCount, gp)
		for _, row := range g.Rows { // tlwe.EncryptZero
			b := row.B()
			for j := range b.Coefs {
				b.Coefs[j] = trand.DoubleToTorus32(rng.Normal() * p.TLWEStdev)
			}
			for c := 0; c < p.RingCount; c++ {
				for j := range row.A[c].Coefs {
					row.A[c].Coefs[j] = rng.Torus32()
				}
				torus.AddMulNaive(b, ring.Polys[c], row.A[c])
			}
		}
		for bloc := 0; bloc <= p.RingCount; bloc++ { // tgsw.Encrypt's gadget diagonal
			for j := 0; j < gp.Levels; j++ {
				h := uint32(1) << (32 - uint(j+1)*uint(gp.BaseLog))
				g.Rows[bloc*gp.Levels+j].A[bloc].Coefs[0] += uint32(lweKey.Bits[i]) * h
			}
		}
		o.bk[i] = g
	}
	o.ks = newRowSwitchKey(ring.ExtractLWEKey(), lweKey, p.KSLevels, p.KSBaseLog, p.LWEStdev, rng)
	return o
}

func (o *oracle) modSwitch(phase torus.Torus32) int {
	twoN := 2 * o.p.PolyDegree
	return int((uint64(phase)*uint64(twoN)+(1<<31))>>32) & (twoN - 1)
}

// bootstrap is the reference programmable bootstrap without key switch: a
// constant test vector mu when lut is nil, the LUT's test vector with its
// half-slot body offset otherwise.
func (o *oracle) bootstrap(mu torus.Torus32, lut boot.LUT, msize int, src *lwe.Sample) *lwe.Sample {
	n, k := o.p.PolyDegree, o.p.RingCount
	gp := o.bk[0].Params
	testvect := torus.NewTorusPoly(n)
	body := src.B
	for j := range testvect.Coefs {
		testvect.Coefs[j] = mu
		if lut != nil {
			testvect.Coefs[j] = lut(j * msize / (2 * n))
		}
	}
	if lut != nil {
		body += torus.Torus32((uint64(1) << 32) / uint64(2*msize))
	}
	rotated := torus.NewTorusPoly(n)
	rotated.MulByXai(2*n-o.modSwitch(body), testvect)
	acc := tlwe.NewSample(n, k)
	acc.NoiselessTrivial(rotated)

	diff := tlwe.NewSample(n, k)
	decomp := make([]*torus.IntPoly, (k+1)*gp.Levels)
	for i := range decomp {
		decomp[i] = torus.NewIntPoly(n)
	}
	for i, a := range src.A {
		bara := o.modSwitch(a)
		if bara == 0 {
			continue
		}
		// acc += BK[i] ⊡ ((X^bara - 1)·acc)
		diff.MulByXaiMinusOne(bara, acc)
		tgsw.DecomposeTLWE(decomp, diff, gp)
		for u, d := range decomp {
			for c := range acc.A {
				torus.AddMulNaive(acc.A[c], d, o.bk[i].Rows[u].A[c])
			}
		}
		acc.Variance += diff.Variance
	}
	out := lwe.NewSample(n * k)
	tlwe.ExtractSample(out, acc)
	return out
}

func (o *oracle) keySwitch(t *testing.T, extracted *lwe.Sample) *lwe.Sample {
	t.Helper()
	out := lwe.NewSample(o.p.LWEDimension)
	o.ks.apply(out, extracted)
	return out
}

// requireSameSwitchKey holds the flat key to the oracle's rows: each
// non-zero-digit row, mask then body, at its flat offset; zero padding to
// the stride; the row variance of every encrypted row; and no row for
// digit 0.
func requireSameSwitchKey(t *testing.T, ks *lwe.SwitchKey, o *rowSwitchKey) {
	t.Helper()
	stride, group := ks.Stride(), 1<<ks.BaseLog-1
	if len(ks.Flat) != len(o.rows)*ks.Levels*group*stride {
		t.Fatalf("flat key has %d words, want %d rows of %d", len(ks.Flat), len(o.rows)*ks.Levels*group, stride)
	}
	for i, plane := range o.rows {
		for j, digits := range plane {
			for v, want := range digits[1:] {
				row := ks.Flat[((i*ks.Levels+j)*group+v)*stride:][:stride]
				for c, w := range want.A {
					if row[c] != w {
						t.Fatalf("row [%d][%d][%d] mask %d: flat %#x, oracle %#x", i, j, v+1, c, row[c], w)
					}
				}
				if row[ks.NOut] != want.B || ks.RowVariance != want.Variance {
					t.Fatalf("row [%d][%d][%d]: flat body %#x variance %g, oracle %#x %g",
						i, j, v+1, row[ks.NOut], ks.RowVariance, want.B, want.Variance)
				}
				for c, pad := range row[ks.NOut+1:] {
					if pad != 0 {
						t.Fatalf("row [%d][%d][%d] padding word %d is %#x", i, j, v+1, c, pad)
					}
				}
			}
		}
	}
}

// op is the reference of one bootstrapped engine operation.
func (o *oracle) op(t *testing.T, op Op, ins ...*Ciphertext) *Ciphertext {
	t.Helper()
	tmp := lwe.NewSample(o.p.LWEDimension)
	if !op.IsLUT() {
		pl := plans[op.Kind]
		tmp.NoiselessTrivial(pl.bias)
		tmp.AddMulTo(pl.ca, ins[0])
		tmp.AddMulTo(pl.cb, ins[1])
		return o.keySwitch(t, o.bootstrap(mu18, nil, 0, tmp))
	}
	plan, ok := logic.SolveLUT(int(op.Arity), op.TT)
	if !ok {
		t.Fatalf("table %#x has no plan at arity %d", op.TT, op.Arity)
	}
	tmp.NoiselessTrivial(0)
	for i := 0; i < int(op.Arity); i++ {
		tmp.AddMulTo(plan.Weights[i], ins[i])
	}
	return o.keySwitch(t, o.bootstrap(0, lutTestVector(plan), logic.LUTMsize, tmp))
}

// mux is the reference of Engine.Mux.
func (o *oracle) mux(t *testing.T, sel, a, b *Ciphertext) *Ciphertext {
	t.Helper()
	tmp := lwe.NewSample(o.p.LWEDimension)
	tmp.NoiselessTrivial(-mu18)
	tmp.AddMulTo(1, sel)
	tmp.AddMulTo(1, a)
	u1 := o.bootstrap(mu18, nil, 0, tmp)
	tmp.NoiselessTrivial(-mu18)
	tmp.AddMulTo(-1, sel)
	tmp.AddMulTo(1, b)
	u2 := o.bootstrap(mu18, nil, 0, tmp)
	sum := lwe.NewSample(o.p.ExtractedLWEDimension())
	sum.NoiselessTrivial(mu18)
	sum.AddTo(u1)
	sum.AddTo(u2)
	return o.keySwitch(t, sum)
}

func requireSame(t *testing.T, what string, got, want *lwe.Sample) {
	t.Helper()
	if got.Dimension() != want.Dimension() {
		t.Fatalf("%s: dimension %d, oracle %d", what, got.Dimension(), want.Dimension())
	}
	for i, w := range want.A {
		if got.A[i] != w {
			t.Fatalf("%s: mask %d = %#x, oracle %#x", what, i, got.A[i], w)
		}
	}
	if got.B != want.B {
		t.Fatalf("%s: body %#x, oracle %#x", what, got.B, want.B)
	}
	if got.Variance != want.Variance {
		t.Fatalf("%s: variance %g, oracle %g", what, got.Variance, want.Variance)
	}
}

func TestDifferentialAgainstNaiveOracle(t *testing.T) {
	p := params.Test()
	seed := []byte("gate-differential")
	sk, ck, err := boot.GenerateKeys(p, trand.NewSeeded(seed))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(p, trand.NewSeeded(seed))
	requireSameSwitchKey(t, ck.KS, o.ks)
	eng := NewEngine(ck)
	ev := eng.Eval
	rng := trand.NewSeeded([]byte("gate-differential-inputs"))
	n, ext := p.LWEDimension, p.ExtractedLWEDimension()

	// 16 members with uniformly random masks and bodies — rotations no gate
	// input would produce included — and per-member test-vector amplitudes.
	// Odd members are programmable in the mixed batches.
	const members = 16
	const msize = 8
	lut := func(m int) torus.Torus32 { return torus.ModSwitchToTorus32(int32(3*m+1), msize) }
	src := make([]*lwe.Sample, members)
	mu := make([]torus.Torus32, members)
	luts := make([]boot.LUT, members)
	wantWoKS := make([]*lwe.Sample, members)  // constant test vector, extracted key
	wantKS := make([]*lwe.Sample, members)    // … key-switched
	wantMixed := make([]*lwe.Sample, members) // LUT on odd members, key-switched
	for m := range src {
		src[m] = lwe.NewSample(n)
		for i := range src[m].A {
			src[m].A[i] = rng.Torus32()
		}
		src[m].B = rng.Torus32()
		mu[m] = rng.Torus32()
		wantWoKS[m] = o.bootstrap(mu[m], nil, 0, src[m])
		wantKS[m] = o.keySwitch(t, wantWoKS[m])
		wantMixed[m] = wantKS[m]
		if m%2 == 1 {
			luts[m] = lut
			wantMixed[m] = o.keySwitch(t, o.bootstrap(0, lut, msize, src[m]))
		}
	}
	fresh := func(dim, count int) []*lwe.Sample {
		out := make([]*lwe.Sample, count)
		for i := range out {
			out[i] = lwe.NewSample(dim)
		}
		return out
	}

	t.Run("Evaluator/single", func(t *testing.T) {
		got, gotExt := lwe.NewSample(n), lwe.NewSample(ext)
		if err := ev.Bootstrap(got, mu[0], src[0]); err != nil {
			t.Fatal(err)
		}
		requireSame(t, "Bootstrap", got, wantKS[0])
		if err := ev.BootstrapWoKS(gotExt, mu[0], src[0]); err != nil {
			t.Fatal(err)
		}
		requireSame(t, "BootstrapWoKS", gotExt, wantWoKS[0])
		if err := ev.BootstrapLUT(got, lut, msize, src[1]); err != nil {
			t.Fatal(err)
		}
		requireSame(t, "BootstrapLUT", got, wantMixed[1])
		if err := ev.BootstrapLUTWoKS(gotExt, lut, msize, src[1]); err != nil {
			t.Fatal(err)
		}
		requireSame(t, "BootstrapLUTWoKS", o.keySwitch(t, gotExt), wantMixed[1])
	})
	for _, b := range []int{1, 3, members} {
		t.Run(fmt.Sprintf("Evaluator/batch-%d", b), func(t *testing.T) {
			got := fresh(n, b)
			if err := ev.BootstrapBatch(got, mu[:b], src[:b]); err != nil {
				t.Fatal(err)
			}
			for m := range got {
				requireSame(t, fmt.Sprintf("BootstrapBatch member %d", m), got[m], wantKS[m])
			}
			gotExt := fresh(ext, b)
			if err := ev.BootstrapBatchWoKS(gotExt, mu[:b], src[:b]); err != nil {
				t.Fatal(err)
			}
			for m := range gotExt {
				requireSame(t, fmt.Sprintf("BootstrapBatchWoKS member %d", m), gotExt[m], wantWoKS[m])
			}
			if err := ev.BootstrapMixedBatch(got, mu[:b], luts[:b], msize, src[:b]); err != nil {
				t.Fatal(err)
			}
			for m := range got {
				requireSame(t, fmt.Sprintf("BootstrapMixedBatch member %d", m), got[m], wantMixed[m])
			}
		})
	}

	// Engine level: encrypted bits through every bootstrapped kind, Mux and
	// LUT gates, single and batched.
	enc := func(bit bool) *Ciphertext {
		c := NewCiphertext(p)
		Encrypt(c, bit, sk, rng)
		return c
	}
	const majority3, xor2 = logic.TT(0xE8), logic.TT(0x6)
	ops := make([]Op, members)
	as, bs, cs := make([]*Ciphertext, members), make([]*Ciphertext, members), make([]*Ciphertext, members)
	want := make([]*Ciphertext, members)
	kinds := []logic.Kind{logic.NAND, logic.AND, logic.OR, logic.NOR, logic.XOR, logic.XNOR,
		logic.ANDNY, logic.ANDYN, logic.ORNY, logic.ORYN}
	for m := range ops {
		as[m], bs[m], cs[m] = enc(m&1 != 0), enc(m&2 != 0), enc(m&4 != 0)
		switch {
		case m < len(kinds):
			ops[m] = Op{Kind: kinds[m]}
		case m%2 == 0:
			ops[m] = Op{TT: majority3, Arity: 3}
		default:
			ops[m] = Op{TT: xor2, Arity: 2}
		}
		want[m] = o.op(t, ops[m], as[m], bs[m], cs[m])
	}
	t.Run("Engine/single", func(t *testing.T) {
		got := NewCiphertext(p)
		for m, op := range ops {
			var err error
			if op.IsLUT() {
				err = eng.LUT(int(op.Arity), op.TT, got, []*Ciphertext{as[m], bs[m], cs[m]}[:op.Arity]...)
			} else {
				err = eng.Binary(op.Kind, got, as[m], bs[m])
			}
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, fmt.Sprintf("member %d (%+v)", m, op), got, want[m])
		}
		for _, sel := range []bool{false, true} {
			s := enc(sel)
			if err := eng.Mux(got, s, as[1], bs[1]); err != nil {
				t.Fatal(err)
			}
			requireSame(t, fmt.Sprintf("Mux(sel=%v)", sel), got, o.mux(t, s, as[1], bs[1]))
		}
	})
	for _, b := range []int{1, 3, members} {
		t.Run(fmt.Sprintf("Engine/batch-%d", b), func(t *testing.T) {
			got := fresh(n, b)
			if err := eng.OpBatch(ops[:b], got, as[:b], bs[:b], cs[:b]); err != nil {
				t.Fatal(err)
			}
			for m := range got {
				requireSame(t, fmt.Sprintf("OpBatch member %d", m), got[m], want[m])
			}
			nb := b
			if nb > len(kinds) {
				nb = len(kinds)
			}
			if err := eng.BinaryBatch(kinds[:nb], got[:nb], as[:nb], bs[:nb]); err != nil {
				t.Fatal(err)
			}
			for m := range got[:nb] {
				requireSame(t, fmt.Sprintf("BinaryBatch member %d", m), got[m], want[m])
			}
		})
	}
}

// TestDifferentialDefault128NAND drives one NAND at the 128-bit parameter
// set — N = 1024, where the transform's rounding margin is smallest —
// against the same oracle.
func TestDifferentialDefault128NAND(t *testing.T) {
	if testing.Short() {
		t.Skip("naive-convolution oracle at N=1024 skipped in -short mode")
	}
	p := params.Default128()
	seed := []byte("gate-differential-128")
	sk, ck, err := boot.GenerateKeys(p, trand.NewSeeded(seed))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(p, trand.NewSeeded(seed))
	requireSameSwitchKey(t, ck.KS, o.ks)
	rng := trand.NewSeeded([]byte("gate-differential-128-inputs"))
	a, b, got := NewCiphertext(p), NewCiphertext(p), NewCiphertext(p)
	Encrypt(a, true, sk, rng)
	Encrypt(b, true, sk, rng)
	if err := NewEngine(ck).Binary(logic.NAND, got, a, b); err != nil {
		t.Fatal(err)
	}
	requireSame(t, "NAND", got, o.op(t, Op{Kind: logic.NAND}, a, b))
	if Decrypt(got, sk) {
		t.Fatal("NAND(true, true) decrypted to true")
	}
}
