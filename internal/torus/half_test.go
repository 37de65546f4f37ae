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
// radix-2-tail and pure-radix-4 FFT shapes are covered).
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
			fa := NewHalfPoly(n / 2)
			fb := NewHalfPoly(n / 2)
			p.HalfFoldInt(fa, a)
			p.HalfFoldTorus(fb, b)
			facc := NewHalfPoly(n / 2)
			facc.MulAccTo(fa, fb)
			got := NewTorusPoly(n)
			p.AddHalfToTorus(got, facc)

			want := NewTorusPoly(n)
			MulNaive(want, a, b)
			for i := 0; i < n; i++ {
				if got.Coefs[i] != want.Coefs[i] {
					t.Fatalf("coef %d: half %#x, naive %#x", i, got.Coefs[i], want.Coefs[i])
				}
			}
		})
	}
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
