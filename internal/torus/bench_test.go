package torus

import (
	"fmt"
	"testing"
)

// Kernel-hot-path microbenchmarks (run via `make bench-kernel`): forward and
// inverse half-complex transforms and the pointwise multiply-accumulates, at
// the two ring degrees used by the Test and Default128 parameter sets. These
// pin a baseline for future kernel PRs.

func benchPolys(n int) (*IntPoly, *IntPoly) {
	a := NewIntPoly(n)
	b := NewIntPoly(n)
	for i := 0; i < n; i++ {
		a.Coefs[i] = int32((i*37+11)%127) - 63
		b.Coefs[i] = int32((i*53+7)%127) - 63
	}
	return a, b
}

func BenchmarkKernelHalfFoldInt(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			a, _ := benchPolys(n)
			dst := NewHalfPoly(n / 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.HalfFoldInt(dst, a)
			}
		})
	}
}

func BenchmarkKernelAddHalfToTorus(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			a, _ := benchPolys(n)
			f := NewHalfPoly(n / 2)
			p.HalfFoldInt(f, a)
			dst := NewTorusPoly(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.AddHalfToTorus(dst, f)
			}
		})
	}
}

func BenchmarkKernelHalfMulAccPair(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			pa, pb := benchPolys(n)
			f1 := NewHalfPoly(n / 2)
			f2 := NewHalfPoly(n / 2)
			p.HalfFoldInt(f1, pa)
			p.HalfFoldInt(f2, pb)
			acc := NewHalfPoly(n / 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc.MulAccPairTo(f1, f2, f2, f1)
			}
		})
	}
}

func BenchmarkKernelHalfMulAcc(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := NewProcessor(n)
			pa, pb := benchPolys(n)
			fa := NewHalfPoly(n / 2)
			fb := NewHalfPoly(n / 2)
			p.HalfFoldInt(fa, pa)
			p.HalfFoldInt(fb, pb)
			acc := NewHalfPoly(n / 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc.MulAccTo(fa, fb)
			}
		})
	}
}
