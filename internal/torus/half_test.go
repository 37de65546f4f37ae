package torus

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestHalfMulMatchesNaive drives the half-complex pipeline end to end —
// fold both operands, pointwise multiply, inverse — and requires exact
// agreement with the naive negacyclic convolution, across the ring sizes
// the parameter sets use (including odd and even log2(N/2) so both the
// radix-2-tail and pure-radix-4 FFT shapes are covered). It runs the public
// entry points (the AVX2 kernels where the CPU has them) and the Go kernels
// called directly, so both paths are held to the oracle on an AVX2 host.
func TestHalfMulMatchesNaive(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			p := NewProcessor(n)
			a := NewIntPoly(n)
			b := NewTorusPoly(n)
			for i := 0; i < n; i++ {
				a.Coefs[i] = int32(rng.Intn(128)) - 64 // gadget-digit range
				b.Coefs[i] = Torus32(rng.Uint32())
			}
			want := NewTorusPoly(n)
			MulNaive(want, a, b)
			for _, path := range []string{"dispatched", "go"} {
				got := halfMul(p, a, b, path == "go")
				for i := 0; i < n; i++ {
					if got.Coefs[i] != want.Coefs[i] {
						t.Fatalf("%s path coef %d: half %#x, naive %#x", path, i, got.Coefs[i], want.Coefs[i])
					}
				}
			}
		})
	}
}

// halfMul returns a*b computed through the half pipeline: by the public
// entry points, or by the portable Go kernels alone when generic is set.
func halfMul(p *Processor, a *IntPoly, b *TorusPoly, generic bool) *TorusPoly {
	n, t := p.N(), p.tab
	fa, fb, facc := NewHalfPoly(n/2), NewHalfPoly(n/2), NewHalfPoly(n/2)
	got := NewTorusPoly(n)
	if !generic {
		p.HalfFoldInt(fa, a)
		p.HalfFoldTorus(fb, b)
		facc.MulAccTo(fa, fb)
		p.AddHalfToTorus(got, facc)
		return got
	}
	t.foldInt(fa.Re, fa.Im, a.Coefs)
	t.fft(fa.Re, fa.Im)
	t.foldTorus(fb.Re, fb.Im, b.Coefs)
	t.fft(fb.Re, fb.Im)
	mulAcc(facc, fa, fb)
	t.ifft(facc.Re, facc.Im)
	t.untwistAdd(got.Coefs, facc.Re, facc.Im)
	return got
}

// TestHalfMulAccPair checks the fused two-product accumulate against two
// separate MulAccTo calls (must be exact: same operation order per point).
func TestHalfMulAccPair(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(11))
	p := NewProcessor(n)
	mk := func() *HalfPoly {
		a := NewIntPoly(n)
		for i := range a.Coefs {
			a.Coefs[i] = int32(rng.Intn(256)) - 128
		}
		f := NewHalfPoly(n / 2)
		p.HalfFoldInt(f, a)
		return f
	}
	a1, b1, a2, b2 := mk(), mk(), mk(), mk()
	sep := NewHalfPoly(n / 2)
	sep.MulAccTo(a1, b1)
	sep.MulAccTo(a2, b2)
	fused := NewHalfPoly(n / 2)
	fused.MulAccPairTo(a1, b1, a2, b2)
	for k := 0; k < n/2; k++ {
		d1 := sep.Re[k] - fused.Re[k]
		d2 := sep.Im[k] - fused.Im[k]
		if d1 > 1e-6 || d1 < -1e-6 || d2 > 1e-6 || d2 < -1e-6 {
			t.Fatalf("point %d: fused (%g,%g) vs separate (%g,%g)",
				k, fused.Re[k], fused.Im[k], sep.Re[k], sep.Im[k])
		}
	}
}
