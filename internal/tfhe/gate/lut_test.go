package gate

import (
	"testing"

	"pytfhe/internal/logic"
	"pytfhe/internal/trand"
)

// TestLUTKernel evaluates every feasible arity-2 and arity-3 table on a
// spread of input assignments through the single-gate programmable
// bootstrap and checks decryption against the cleartext table.
// Exhaustively testing all 48 feasible arity-3 tables × 8 assignments
// would dominate the package's runtime, so a representative set is pinned
// (symmetric, asymmetric, high-norm) and the rest rely on the
// machine-verified cell model in internal/logic.
func TestLUTKernel(t *testing.T) {
	sk, ck := keys(t)
	eng := NewEngine(ck)
	rng := trand.NewSeeded([]byte("lut-kernel"))

	cases := []struct {
		name  string
		arity int
		tt    logic.TT
	}{
		{"AND2", 2, logic.TTOf(logic.AND)},
		{"XOR2", 2, logic.TTOf(logic.XOR)},
		{"MAJ", 3, 0xE8},
		{"PARITY3", 3, 0x96}, // worst feasible norm Σc² = 9
		{"A_XOR_BC", 3, 0x78},
		{"XOR_SPREAD", 3, 0x7E},
	}
	ins := make([]*Ciphertext, logic.MaxLUTArity)
	for i := range ins {
		ins[i] = NewCiphertext(sk.Params)
	}
	out := NewCiphertext(sk.Params)
	for _, c := range cases {
		for v := 0; v < 1<<c.arity; v++ {
			for i := 0; i < c.arity; i++ {
				Encrypt(ins[i], v>>(c.arity-1-i)&1 == 1, sk, rng)
			}
			if err := eng.LUT(c.arity, c.tt, out, ins[:c.arity]...); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want := c.tt.Eval(uint8(v))
			if got := Decrypt(out, sk); got != want {
				t.Fatalf("%s(%0*b) = %v, want %v", c.name, c.arity, v, got, want)
			}
		}
	}

	// Infeasible tables are refused, not silently mis-evaluated.
	if err := eng.LUT(3, 0x80, out, ins[0], ins[1], ins[2]); err == nil {
		t.Fatal("AND3 accepted despite having no single-bootstrap plan")
	}
}

// samplesEqual reports field-wise equality of two LWE samples.
func samplesEqual(x, y *Ciphertext) bool {
	if x.B != y.B || len(x.A) != len(y.A) {
		return false
	}
	for i := range x.A {
		if x.A[i] != y.A[i] {
			return false
		}
	}
	return true
}

// TestOpBatchMixed runs a batch interleaving classic bootstrapped gates
// and LUT members and checks every member against its cleartext function,
// plus bit-exactness with the single-gate paths.
func TestOpBatchMixed(t *testing.T) {
	sk, ck := keys(t)
	eng := NewEngine(ck)
	single := NewEngine(ck)
	rng := trand.NewSeeded([]byte("op-batch"))

	ops := []Op{
		{TT: logic.TTOf(logic.AND)},
		{TT: 0xE8, Arity: 3},
		{TT: logic.TTOf(logic.XOR)},
		{TT: 0x96, Arity: 3},
		{TT: logic.TTOf(logic.NAND), Arity: 2},
		{TT: logic.TTOf(logic.NOR)},
	}
	n := len(ops)
	a := make([]*Ciphertext, n)
	b := make([]*Ciphertext, n)
	c := make([]*Ciphertext, n)
	dst := make([]*Ciphertext, n)
	sref := make([]*Ciphertext, n)
	bits := make([][3]bool, n)
	for m := range ops {
		a[m] = NewCiphertext(sk.Params)
		b[m] = NewCiphertext(sk.Params)
		dst[m] = NewCiphertext(sk.Params)
		sref[m] = NewCiphertext(sk.Params)
		bits[m] = [3]bool{m%2 == 0, m%3 == 0, m%4 == 0}
		Encrypt(a[m], bits[m][0], sk, rng)
		Encrypt(b[m], bits[m][1], sk, rng)
		if ops[m].Arity >= 3 {
			c[m] = NewCiphertext(sk.Params)
			Encrypt(c[m], bits[m][2], sk, rng)
		}
	}
	if err := eng.OpBatch(ops, dst, a, b, c); err != nil {
		t.Fatal(err)
	}
	for m, op := range ops {
		var want bool
		if op.Arity != 0 {
			want = op.TT.EvalBits(bits[m][:op.Arity]...)
			ins := []*Ciphertext{a[m], b[m], c[m]}
			if err := single.LUT(int(op.Arity), op.TT, sref[m], ins[:op.Arity]...); err != nil {
				t.Fatal(err)
			}
		} else {
			want = logic.Kind(op.TT).Eval(bits[m][0], bits[m][1])
			if err := single.Binary(logic.Kind(op.TT), sref[m], a[m], b[m]); err != nil {
				t.Fatal(err)
			}
		}
		if got := Decrypt(dst[m], sk); got != want {
			t.Fatalf("member %d (%+v): got %v, want %v", m, op, got, want)
		}
		if !samplesEqual(dst[m], sref[m]) {
			t.Fatalf("member %d (%+v): batch result not bit-exact with single path", m, op)
		}
	}
}
