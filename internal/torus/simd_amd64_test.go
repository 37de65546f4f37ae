package torus

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the vector kernels (the *AVX2 wrappers, which take
// the AVX-512 loops where the CPU has them) against the portable Go kernels
// they replace, called side by side on the same inputs. The float stages
// agree within rounding (FMA contracts differently); everything that
// produces integers must agree exactly. The AVX-512 tier is held to the
// AVX2 one bit for bit further down.

func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU lacks AVX2+FMA: only the Go kernels run here")
	}
}

// closeSlices fails unless got and want agree to within tol times the
// largest magnitude in want.
func closeSlices(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	scale := 1.0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > tol*scale || math.IsNaN(got[i]) {
			t.Fatalf("%s[%d]: avx2 %g, go %g (|diff| %g, scale %g)", what, i, got[i], want[i], d, scale)
		}
	}
}

func randHalf(rng *rand.Rand, m int) *HalfPoly {
	f := NewHalfPoly(m)
	for k := 0; k < m; k++ {
		f.Re[k] = rng.NormFloat64() * 1e6
		f.Im[k] = rng.NormFloat64() * 1e6
	}
	return f
}

func TestAVX2TransformsMatchGo(t *testing.T) {
	requireAVX2(t)
	const tol = 1e-13
	for n := 4; n <= 2048; n *= 2 {
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 7))
			tab := halfTablesFor(n)
			m := n / 2
			ip := randIntPoly(rng, n, 64)
			tp := randTorusPoly(rng, n)

			gore, goim := make([]float64, m), make([]float64, m)
			vre, vim := make([]float64, m), make([]float64, m)
			tab.foldInt(gore, goim, ip.Coefs)
			tab.foldIntAVX2(vre, vim, ip.Coefs)
			closeSlices(t, "foldInt re", vre, gore, tol)
			closeSlices(t, "foldInt im", vim, goim, tol)
			tab.foldTorus(gore, goim, tp.Coefs)
			tab.foldTorusAVX2(vre, vim, tp.Coefs)
			closeSlices(t, "foldTorus re", vre, gore, tol)
			closeSlices(t, "foldTorus im", vim, goim, tol)

			// fft and ifft on the same folded input.
			copy(vre, gore)
			copy(vim, goim)
			tab.fft(gore, goim)
			tab.fftAVX2(vre, vim)
			closeSlices(t, "fft re", vre, gore, tol)
			closeSlices(t, "fft im", vim, goim, tol)
			src := randHalf(rng, m)
			copy(gore, src.Re)
			copy(goim, src.Im)
			tab.ifft(gore, goim)
			tab.ifftAVX2(vre, vim, src.Re, src.Im)
			closeSlices(t, "ifft re", vre, gore, tol)
			closeSlices(t, "ifft im", vim, goim, tol)

			// Pointwise products accumulate onto a nonzero accumulator.
			a1, b1, a2, b2 := randHalf(rng, m), randHalf(rng, m), randHalf(rng, m), randHalf(rng, m)
			goAcc, vAcc := randHalf(rng, m), NewHalfPoly(m)
			copy(vAcc.Re, goAcc.Re)
			copy(vAcc.Im, goAcc.Im)
			mulAcc(goAcc, a1, b1)
			mulAccAVX2(vAcc, a1, b1)
			closeSlices(t, "MulAccTo re", vAcc.Re, goAcc.Re, tol)
			closeSlices(t, "MulAccTo im", vAcc.Im, goAcc.Im, tol)
			mulAccPair(goAcc, a1, b1, a2, b2)
			mulAccPairAVX2(vAcc, a1, b1, a2, b2)
			closeSlices(t, "MulAccPairTo re", vAcc.Re, goAcc.Re, tol)
			closeSlices(t, "MulAccPairTo im", vAcc.Im, goAcc.Im, tol)
		})
	}
}

// TestAVX2RoundingMatchesRoundTorus feeds the untwist-round-add kernel
// crafted values — around ±2^31, the 2^32 wrap, ±(2^51-1) (the edge of
// RoundExactBound), negatives and fractional parts of ±0.49 — through an
// identity twist, so its rounding and wrap-around are compared with
// roundTorus value for value on top of a random accumulator.
func TestAVX2RoundingMatchesRoundTorus(t *testing.T) {
	requireAVX2(t)
	const b31, b32, b51 = 1 << 31, 1 << 32, 1 << 51
	vals := []float64{
		0, 1, -1, 5, -5, 0.49, -0.49, 1.49, -1.49, 2.51, -2.51,
		b31 - 1, b31, b31 + 1, -b31 + 1, -b31, -b31 - 1, b31 + 0.49, -b31 - 0.49,
		b32 - 1, b32, b32 + 1, -b32 + 1, -b32, -b32 - 1, b32 + 0.49, -b32 - 0.49,
		3*b32 + 7.49, -3*b32 - 7.49, 1<<40 + 0.49, -(1 << 40) - 0.49,
		RoundExactBound, -RoundExactBound, RoundExactBound - 1, -RoundExactBound + 1,
		b51 - b32 - 3, -b51 + b32 + 3, 1<<49 + 12345, -(1 << 49) - 12345,
	}
	for len(vals)&(len(vals)-1) != 0 { // a power of two, so ×M and 1/M are exact
		vals = append(vals, float64(len(vals))+0.25)
	}
	m := len(vals)
	// An identity twist (cos 1, sin 0), with the kernels' 1/M scale undone
	// in the inputs.
	tab := &halfTables{m: m, foldRe: make([]float64, m), foldIm: make([]float64, m)}
	for j := range tab.foldRe {
		tab.foldRe[j] = 1
	}
	re, im := make([]float64, m), make([]float64, m)
	for j, v := range vals {
		re[j] = v * float64(m)
		im[j] = -vals[m-1-j] * float64(m)
	}
	rng := rand.New(rand.NewSource(3))
	goDst := make([]Torus32, 2*m)
	for i := range goDst {
		goDst[i] = rng.Uint32()
	}
	vDst := append([]Torus32(nil), goDst...)
	tab.untwistAdd(goDst, re, im)
	tab.untwistAddAVX2(vDst, re, im)
	for i := range goDst {
		v := vals[i%m]
		if i >= m {
			v = vals[m-1-i%m]
		}
		if vDst[i] != goDst[i] {
			t.Errorf("coef %d (value %.2f): avx2 %#x, go %#x", i, v, vDst[i], goDst[i])
		}
	}
}

// TestAVX2IntegerKernelsMatchGo checks digit extraction and the LWE row
// subtraction bit for bit, at lengths that are and are not multiples of
// the 8-word vector (630 is the Default128 LWE dimension).
func TestAVX2IntegerKernelsMatchGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 8, 64, 630, 1024} {
		src := make([]Torus32, n)
		for i := range src {
			src[i] = rng.Uint32()
		}
		for _, baseLog := range []uint{1, 2, 7, 10} {
			offset := rng.Uint32()
			for shift := uint(0); shift+baseLog <= 32; shift += baseLog {
				want, got := make([]int32, n), make([]int32, n)
				gadgetDigit(want, src, offset, shift, baseLog)
				gadgetDigitAVX2(got, src, offset, shift, baseLog)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d baseLog=%d shift=%d digit %d: avx2 %d, go %d", n, baseLog, shift, i, got[i], want[i])
					}
				}
			}
		}
		want, got := make([]Torus32, n+3), make([]Torus32, n+3)
		for i := range want {
			want[i] = rng.Uint32()
			got[i] = want[i]
		}
		sub(want, src)
		subAVX2(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d sub word %d: avx2 %#x, go %#x", n, i, got[i], want[i])
			}
		}
	}
}

// TestAVX2MulByXaiMinusOneMatchesGo compares the vector rotation with the
// Go loop at every a in [0, 2N): every split of the wrapped and straight
// runs, ragged ends included, on the Test and Default128 rings and on a
// ring below the vector width. The destination starts as garbage, so a
// word the kernel fails to write shows.
func TestAVX2MulByXaiMinusOneMatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{4, 256, 1024} {
		src := randTorusPoly(rng, n)
		for a := 0; a < 2*n; a++ {
			want, got := randTorusPoly(rng, n), randTorusPoly(rng, n)
			mulByXaiMinusOne(want.Coefs, src.Coefs, a, rotSub)
			mulByXaiMinusOne(got.Coefs, src.Coefs, a, rotSubAVX2)
			for i := range want.Coefs {
				if got.Coefs[i] != want.Coefs[i] {
					t.Fatalf("N=%d a=%d coef %d: avx2 %#x, go %#x", n, a, i, got.Coefs[i], want.Coefs[i])
				}
			}
		}
	}
}

// TestAVX2SwitchRowsMatchesGo runs the batched key-switch kernel on random
// keys, accumulators and row lists — empty segments, strides that exercise
// every chunk width (8, 4 and 1 vectors) and ragged member counts
// included — and requires every accumulator word to match the Go loop.
// The accumulators carry guard words past the last member, which must not
// be touched.
func TestAVX2SwitchRowsMatchesGo(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(7))
	for _, stride := range []int{8, 32, 64, 72, 96, 120, 632} {
		key := make([]Torus32, 40*stride)
		for i := range key {
			key[i] = rng.Uint32()
		}
		for _, members := range []int{1, 2, 3, 5, 16, 17} {
			for _, blocks := range []int{1, 3} {
				var rows, ends []uint32
				for s := 0; s < blocks*members; s++ {
					for n := rng.Intn(12); n > 0; n-- {
						rows = append(rows, uint32(rng.Intn(40)*stride))
					}
					ends = append(ends, uint32(len(rows)))
				}
				want := make([]Torus32, members*stride+8)
				for i := range want {
					want[i] = rng.Uint32()
				}
				got := append([]Torus32(nil), want...)
				switchRows(want, key, rows, ends, members, stride)
				switchRowsAVX2(got, key, rows, ends, members, stride)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("stride=%d members=%d blocks=%d word %d: avx2 %#x, go %#x",
							stride, members, blocks, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Differential tests of the AVX-512 tier against the AVX2 one. Every zmm
// lane runs the ymm butterflies with the same contractions, so here every
// value must agree bit for bit, not within a tolerance.

func requireAVX512(t testing.TB) {
	t.Helper()
	requireAVX2(t)
	if !useAVX512 {
		t.Skip("CPU or OS lacks AVX-512F (with ZMM state in XCR0): only the AVX2 tier runs here")
	}
}

// TestKernelTier logs the kernel tier CPUID chose and checks that the
// AVX-512 tier is only ever chosen with AVX2 and with the ZMM state saved
// by the OS.
func TestKernelTier(t *testing.T) {
	tier := "go"
	switch {
	case useAVX512:
		tier = "avx512"
	case useAVX2:
		tier = "avx2"
	}
	t.Logf("kernel tier: %s", tier)
	if !useAVX512 {
		return
	}
	if !useAVX2 {
		t.Fatal("AVX-512 tier chosen without AVX2+FMA")
	}
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		t.Fatalf("AVX-512 tier chosen with XCR0 = %#x: the OS does not save ZMM state", xcr0)
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&(1<<16) == 0 {
		t.Fatal("AVX-512 tier chosen without CPUID AVX512F")
	}
}

// sameBits fails unless got and want are equal bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: avx512 %v (%#x), avx2 %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestAVX512MatchesAVX2 runs both tiers on the same inputs: the folds, each
// forward stage (the q = 2 + radix-2 tail included) and each inverse pass
// from the same state, both whole transforms, the untwist-add and the
// paired multiply-add. N = 4 and 8 have M < 8 and must fall back.
func TestAVX512MatchesAVX2(t *testing.T) {
	requireAVX512(t)
	for n := 4; n <= 2048; n *= 2 {
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 11))
			tab := halfTablesFor(n)
			m := n / 2
			ip := randIntPoly(rng, n, 64)
			tp := randTorusPoly(rng, n)
			yre, yim := make([]float64, m), make([]float64, m)
			zre, zim := make([]float64, m), make([]float64, m)
			tab.foldIntVec(yre, yim, ip.Coefs, false)
			tab.foldIntVec(zre, zim, ip.Coefs, true)
			sameBits(t, "foldInt re", zre, yre)
			sameBits(t, "foldInt im", zim, yim)
			tab.foldTorusVec(yre, yim, tp.Coefs, false)
			tab.foldTorusVec(zre, zim, tp.Coefs, true)
			sameBits(t, "foldTorus re", zre, yre)
			sameBits(t, "foldTorus im", zim, yim)

			if m >= 8 {
				for _, st := range tab.stages {
					tab.fwdStageVec(st, yre, yim, false)
					tab.fwdStageVec(st, zre, zim, true)
					sameBits(t, fmt.Sprintf("fwd stage q=%d re", st.q), zre, yre)
					sameBits(t, fmt.Sprintf("fwd stage q=%d im", st.q), zim, yim)
				}
				src := randHalf(rng, m)
				tab.invFirstVec(yre, yim, src.Re, src.Im, false)
				tab.invFirstVec(zre, zim, src.Re, src.Im, true)
				sameBits(t, "inverse first pass re", zre, yre)
				sameBits(t, "inverse first pass im", zim, yim)
				for si := len(tab.stages) - 2; si >= 0; si-- {
					st := tab.stages[si]
					tab.invStageVec(st, yre, yim, false)
					tab.invStageVec(st, zre, zim, true)
					sameBits(t, fmt.Sprintf("inv stage q=%d re", st.q), zre, yre)
					sameBits(t, fmt.Sprintf("inv stage q=%d im", st.q), zim, yim)
				}
			}

			tab.foldIntVec(yre, yim, ip.Coefs, false)
			copy(zre, yre)
			copy(zim, yim)
			tab.fftVec(yre, yim, false)
			tab.fftVec(zre, zim, true)
			sameBits(t, "fft re", zre, yre)
			sameBits(t, "fft im", zim, yim)
			src := randHalf(rng, m)
			tab.ifftVec(yre, yim, src.Re, src.Im, false)
			tab.ifftVec(zre, zim, src.Re, src.Im, true)
			sameBits(t, "ifft re", zre, yre)
			sameBits(t, "ifft im", zim, yim)

			// Untwist-add of the inverse output (×M, so it reaches the
			// rounding with values up to ~2^40) onto a random accumulator.
			for k := range yre {
				yre[k] *= 1 << 20
				yim[k] *= 1 << 20
			}
			ydst := randTorusPoly(rng, n).Coefs
			zdst := append([]Torus32(nil), ydst...)
			tab.untwistAddVec(ydst, yre, yim, false)
			tab.untwistAddVec(zdst, yre, yim, true)
			for i := range ydst {
				if zdst[i] != ydst[i] {
					t.Fatalf("untwistAdd coef %d: avx512 %#x, avx2 %#x", i, zdst[i], ydst[i])
				}
			}

			a1, b1, a2, b2 := randHalf(rng, m), randHalf(rng, m), randHalf(rng, m), randHalf(rng, m)
			yAcc, zAcc := randHalf(rng, m), NewHalfPoly(m)
			copy(zAcc.Re, yAcc.Re)
			copy(zAcc.Im, yAcc.Im)
			mulAccPairVec(yAcc, a1, b1, a2, b2, false)
			mulAccPairVec(zAcc, a1, b1, a2, b2, true)
			sameBits(t, "MulAccPairTo re", zAcc.Re, yAcc.Re)
			sameBits(t, "MulAccPairTo im", zAcc.Im, yAcc.Im)
		})
	}
}

// TestVecTiersMatchNaive holds each vector tier, called directly, to the
// naive negacyclic product: fold both operands, multiply-add, inverse and
// round, as the public entry points do.
func TestVecTiersMatchNaive(t *testing.T) {
	requireAVX2(t)
	for _, zmm := range []bool{false, true} {
		name := map[bool]string{false: "avx2", true: "avx512"}[zmm]
		t.Run(name, func(t *testing.T) {
			if zmm {
				requireAVX512(t)
			}
			for n := 4; n <= 2048; n *= 2 {
				rng := rand.New(rand.NewSource(int64(n)))
				tab := halfTablesFor(n)
				m := n / 2
				a := randIntPoly(rng, n, 64)
				b := randTorusPoly(rng, n)
				want := NewTorusPoly(n)
				MulNaive(want, a, b)
				fa, fb, acc := NewHalfPoly(m), NewHalfPoly(m), NewHalfPoly(m)
				tab.foldIntVec(fa.Re, fa.Im, a.Coefs, zmm)
				tab.fftVec(fa.Re, fa.Im, zmm)
				tab.foldTorusVec(fb.Re, fb.Im, b.Coefs, zmm)
				tab.fftVec(fb.Re, fb.Im, zmm)
				// a·b + 0·b through the paired kernel.
				mulAccPairVec(acc, fa, fb, NewHalfPoly(m), fb, zmm)
				re, im := make([]float64, m), make([]float64, m)
				tab.ifftVec(re, im, acc.Re, acc.Im, zmm)
				got := NewTorusPoly(n)
				tab.untwistAddVec(got.Coefs, re, im, zmm)
				for i := range want.Coefs {
					if got.Coefs[i] != want.Coefs[i] {
						t.Fatalf("N=%d coef %d: %s %#x, naive %#x", n, i, name, got.Coefs[i], want.Coefs[i])
					}
				}
			}
		})
	}
}

func init() {
	tier := func(name, missing string, zmm bool) kernelTier {
		return kernelTier{
			name:    name,
			missing: missing,
			halfFoldInt: func(p *Processor, dst *HalfPoly, src *IntPoly) {
				p.tab.foldIntVec(dst.Re, dst.Im, src.Coefs, zmm)
				p.tab.fftVec(dst.Re, dst.Im, zmm)
			},
			addHalfToTorus: func(p *Processor, dst *TorusPoly, src *HalfPoly) {
				p.tab.ifftVec(p.scRe, p.scIm, src.Re, src.Im, zmm)
				p.tab.untwistAddVec(dst.Coefs, p.scRe, p.scIm, zmm)
			},
			mulAcc:     mulAccAVX2,
			mulAccPair: func(f, a1, b1, a2, b2 *HalfPoly) { mulAccPairVec(f, a1, b1, a2, b2, zmm) },
			halfDigits: func(p *Processor, dst []float64, src *TorusPoly, offset uint32, baseLog uint) {
				p.halfDigitsVec(dst, src.Coefs, len(dst)/p.n, offset, baseLog, zmm)
			},
			mulAccRows: func(p *Processor, dst, spec, key []float64) {
				mulAccRowsVec(dst, spec, key, p.tab.m, len(spec)/p.n, len(dst)/p.n, zmm)
			},
		}
	}
	avx2, avx512 := "", ""
	if !useAVX2 {
		avx2 = "AVX2+FMA"
	}
	if !useAVX512 {
		avx512 = "AVX-512F (with ZMM state in XCR0)"
	}
	kernelTiers = append(kernelTiers, tier("avx2", avx2, false), tier("avx512", avx512, true))
}

// BenchmarkKernelTransformStages times each piece of the transform on each
// vector tier at the Default128 ring (N = 1024): the fold, every forward
// stage, the fused tails, every inverse stage and the untwist-add. Pieces a
// tier runs with the other tier's loop (q = 4 on zmm) time that loop.
func BenchmarkKernelTransformStages(b *testing.B) {
	const n = 1024
	tab := halfTablesFor(n)
	m := n / 2
	ip, _ := benchPolys(n)
	re, im := make([]float64, m), make([]float64, m)
	dst := make([]Torus32, n)
	for _, tier := range kernelTiers[1:] {
		zmm := tier.name == "avx512"
		run := func(name string, body func()) {
			b.Run(tier.name+"/"+name, func(b *testing.B) {
				if tier.missing != "" {
					b.Skip("CPU lacks " + tier.missing)
				}
				tab.foldIntVec(re, im, ip.Coefs, zmm)
				for i := 0; i < b.N; i++ {
					body()
				}
			})
		}
		run("fold", func() { tab.foldIntVec(re, im, ip.Coefs, zmm) })
		for _, st := range tab.stages {
			run(fmt.Sprintf("fwd-q%d", st.q), func() { tab.fwdStageVec(st, re, im, zmm) })
		}
		run("inv-first", func() { tab.invFirstVec(re, im, re, im, zmm) })
		for si := len(tab.stages) - 2; si >= 0; si-- {
			st := tab.stages[si]
			run(fmt.Sprintf("inv-q%d", st.q), func() { tab.invStageVec(st, re, im, zmm) })
		}
		run("untwist", func() { tab.untwistAddVec(dst, re, im, zmm) })
	}
}
