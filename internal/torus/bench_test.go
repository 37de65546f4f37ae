package torus

import (
	"fmt"
	"testing"
)

// Kernel-hot-path microbenchmarks (run via `make bench-kernel`): forward and
// inverse half-complex transforms and the pointwise multiply-accumulates, at
// the two ring degrees used by the Test and Default128 parameter sets. These
// pin a baseline for future kernel PRs. N<n> times the public entry point
// (the best tier this CPU runs); <tier>/N<n> calls one tier directly, so
// every tier keeps a number on a CPU that also runs a faster one.

// kernelTier is one implementation of the transform, the multiply-adds and
// the external product's two fused entry points; missing names the CPU
// feature it needs and this CPU lacks.
type kernelTier struct {
	name           string
	missing        string
	halfFoldInt    func(p *Processor, dst *HalfPoly, src *IntPoly)
	addHalfToTorus func(p *Processor, dst *TorusPoly, src *HalfPoly)
	mulAcc         func(f, a, b *HalfPoly)
	mulAccPair     func(f, a1, b1, a2, b2 *HalfPoly)
	halfDigits     func(p *Processor, dst []float64, src *TorusPoly, offset uint32, baseLog uint)
	mulAccRows     func(p *Processor, dst, spec, key []float64)
}

// kernelTiers starts with the portable Go kernels; the vector tiers are
// appended by the architecture's test file.
var kernelTiers = []kernelTier{{
	name: "go",
	halfFoldInt: func(p *Processor, dst *HalfPoly, src *IntPoly) {
		p.tab.foldInt(dst.Re, dst.Im, src.Coefs)
		p.tab.fft(dst.Re, dst.Im)
	},
	addHalfToTorus: func(p *Processor, dst *TorusPoly, src *HalfPoly) {
		copy(p.scRe, src.Re)
		copy(p.scIm, src.Im)
		p.tab.ifft(p.scRe, p.scIm)
		p.tab.untwistAdd(dst.Coefs, p.scRe, p.scIm)
	},
	mulAcc:     mulAcc,
	mulAccPair: mulAccPair,
	halfDigits: func(p *Processor, dst []float64, src *TorusPoly, offset uint32, baseLog uint) {
		p.halfDigits(dst, src.Coefs, len(dst)/p.n, offset, baseLog)
	},
	mulAccRows: func(p *Processor, dst, spec, key []float64) {
		mulAccRows(dst, spec, key, p.tab.m, len(spec)/p.n, len(dst)/p.n)
	},
}}

// benchTiers runs body as the sub-benchmark N<n> and once per tier as
// <tier>/N<n>, skipping the tiers this CPU lacks.
func benchTiers(b *testing.B, n int, public func(), body func(kernelTier)) {
	b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			public()
		}
	})
	for _, tier := range kernelTiers {
		b.Run(fmt.Sprintf("%s/N%d", tier.name, n), func(b *testing.B) {
			if tier.missing != "" {
				b.Skip("CPU lacks " + tier.missing)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body(tier)
			}
		})
	}
}

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
		p := NewProcessor(n)
		a, _ := benchPolys(n)
		dst := NewHalfPoly(n / 2)
		benchTiers(b, n, func() { p.HalfFoldInt(dst, a) },
			func(tier kernelTier) { tier.halfFoldInt(p, dst, a) })
	}
}

func BenchmarkKernelAddHalfToTorus(b *testing.B) {
	for _, n := range []int{256, 1024} {
		p := NewProcessor(n)
		a, _ := benchPolys(n)
		f := NewHalfPoly(n / 2)
		p.HalfFoldInt(f, a)
		dst := NewTorusPoly(n)
		benchTiers(b, n, func() { p.AddHalfToTorus(dst, f) },
			func(tier kernelTier) { tier.addHalfToTorus(p, dst, f) })
	}
}

func BenchmarkKernelHalfMulAccPair(b *testing.B) {
	for _, n := range []int{256, 1024} {
		p := NewProcessor(n)
		pa, pb := benchPolys(n)
		f1 := NewHalfPoly(n / 2)
		f2 := NewHalfPoly(n / 2)
		p.HalfFoldInt(f1, pa)
		p.HalfFoldInt(f2, pb)
		acc := NewHalfPoly(n / 2)
		benchTiers(b, n, func() { acc.MulAccPairTo(f1, f2, f2, f1) },
			func(tier kernelTier) { tier.mulAccPair(acc, f1, f2, f2, f1) })
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

// The external product's front end and multiply-accumulate at the
// Default128 gadget (l = 3, Bgbit = 7, k = 1): HalfDigits of one torus
// polynomial into its three digit spectra, and MulAccRows of the
// (k+1)·l = 6 spectra against one key entry into k+1 = 2 accumulators.

func BenchmarkKernelHalfDigits(b *testing.B) {
	const levels, baseLog = 3, 7
	for _, n := range []int{256, 1024} {
		p := NewProcessor(n)
		src := NewTorusPoly(n)
		for i := range src.Coefs {
			src.Coefs[i] = Torus32(i) * 0x9e3779b9
		}
		dst := make([]float64, levels*n)
		benchTiers(b, n, func() { p.HalfDigits(dst, src, 0x1020400, baseLog) },
			func(tier kernelTier) { tier.halfDigits(p, dst, src, 0x1020400, baseLog) })
	}
}

func BenchmarkKernelMulAccRows(b *testing.B) {
	const rows, outs = 6, 2
	for _, n := range []int{256, 1024} {
		p := NewProcessor(n)
		pa, pb := benchPolys(n)
		f1, f2 := NewHalfPoly(n/2), NewHalfPoly(n/2)
		p.HalfFoldInt(f1, pa)
		p.HalfFoldInt(f2, pb)
		spec, key := make([]float64, rows*n), make([]float64, rows*outs*n)
		for u := 0; u < rows*outs; u++ {
			f := f1
			if u%3 == 1 {
				f = f2
			}
			if u < rows {
				copy(spec[u*n:], f.Re)
				copy(spec[u*n+n/2:], f.Im)
			}
			copy(key[u*n:], f.Im)
			copy(key[u*n+n/2:], f.Re)
		}
		dst := make([]float64, outs*n)
		benchTiers(b, n, func() { p.MulAccRows(dst, spec, key) },
			func(tier kernelTier) { tier.mulAccRows(p, dst, spec, key) })
	}
}
