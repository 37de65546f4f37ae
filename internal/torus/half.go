package torus

import (
	"math"
	"sync"
	"sync/atomic"
)

// Half-complex negacyclic transform — the one polynomial-multiply engine
// behind every external product, bootstrap and ring encryption.
//
// A real polynomial a in R[X]/(X^N+1) is determined by its evaluations at
// any set of N odd 2N-th roots of unity closed under conjugation; since a
// is real, the values at conjugate roots are conjugate, so M = N/2 complex
// evaluations carry all the information (a full-size complex transform
// would store all N conjugate-redundant points, doubling the work of every
// pointwise product and the footprint of every bootstrap-key row). The
// half representation evaluates only at
//
//	ζ_k = e^{-iπ(4k+1)/N},  k = 0..M-1,
//
// whose conjugates cover the remaining roots. Folding
//
//	c_j = (a_j - i·a_{j+M}) · e^{-iπj/N},  j = 0..M-1,
//
// gives a(ζ_k) = FFT_M(c)_k, and the inverse recovers
// a_j = Re(c_j·e^{iπj/N}), a_{j+M} = -Im(c_j·e^{iπj/N}).
//
// The M-point FFT core here is a radix-4 (plus one radix-2 stage when
// log2 M is odd) decimation-in-frequency transform that SKIPS the
// bit-reversal permutation: spectra are kept in the transform's natural
// digit-reversed order. That order is an internal convention — pointwise
// products preserve it and the inverse undoes the stages in reverse — so
// the permutation passes are pure overhead and are dropped. Per-stage
// twiddles are stored flat in access order, so the inner loops are
// sequential in memory.
//
// Three tiers sit behind every public entry point, chosen once at package
// init from CPUID: the Go loops in this file (the portable path, and the
// oracle the tests hold the others to), AVX2+FMA assembly (simd_amd64.s),
// and on CPUs with AVX-512F the same assembly's eight-lane loops for the
// transform, MulAccPairTo and the external product's two entry points. The
// assembly runs the same stages in the same order four or eight points per
// instruction, with its own twiddle layouts (halfTables.vecTw, vecTw8) and
// the last radix-4 stage fused with the radix-2 tail. Every AVX-512 lane
// runs the AVX2 butterflies with the same FMA contractions, so those two
// tiers give the same bits; the Go loops round differently (no FMA) but
// within the same exactness bound.
//
// An external product enters through HalfDigits (gadget digits, fold and
// transform of one torus polynomial) and MulAccRows (every digit spectrum
// against every row of a bootstrapping-key entry). Only the AVX-512 tier
// fuses them: one pass extracts all levels' digits and folds them, and one
// pass keeps each output's sum in registers over all rows. The AVX2 and Go
// tiers compose the kernels below (GadgetDigit, the fold and transform,
// MulAccPairTo and MulAccTo), and the fused loops run those kernels' exact
// operations, so every tier's spectra are the composed ones bit for bit.
//
// Exactness: the kernels compute integer convolutions whose floating-point
// error stays far below 0.5, so after rounding to the torus the results
// equal MulNaive coefficient-for-coefficient on every tier, within the
// magnitude bound RoundExactBound.

// KernelTier names the tier every public entry point runs on this CPU:
// "avx512", "avx2" or "go".
func KernelTier() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	}
	return "go"
}

// HalfPoly is a polynomial of ring degree N held as M = N/2 half-complex
// evaluation points in the digit-reversed order of the half transform.
type HalfPoly struct {
	Re, Im []float64
}

// NewHalfPoly returns a zero half-complex polynomial with m = N/2 points.
func NewHalfPoly(m int) *HalfPoly {
	return &HalfPoly{Re: make([]float64, m), Im: make([]float64, m)}
}

// M returns the number of half-complex points.
func (f *HalfPoly) M() int { return len(f.Re) }

// Clear zeroes the polynomial.
func (f *HalfPoly) Clear() {
	clear(f.Re)
	clear(f.Im)
}

// MulAccTo accumulates f += a*b pointwise.
func (f *HalfPoly) MulAccTo(a, b *HalfPoly) {
	if useAVX2 {
		mulAccAVX2(f, a, b)
		return
	}
	mulAcc(f, a, b)
}

// MulAccPairTo accumulates f += a1*b1 + a2*b2 in a single pass, halving the
// loads and stores of the accumulator relative to two MulAccTo calls. This
// is the inner loop of the batched external product.
func (f *HalfPoly) MulAccPairTo(a1, b1, a2, b2 *HalfPoly) {
	if useAVX2 {
		mulAccPairAVX2(f, a1, b1, a2, b2)
		return
	}
	mulAccPair(f, a1, b1, a2, b2)
}

// mulAcc is the portable MulAccTo kernel.
func mulAcc(f, a, b *HalfPoly) {
	fr, fi := f.Re, f.Im
	ar, ai := a.Re, a.Im
	br, bi := b.Re, b.Im
	for k := range fr {
		fr[k] += ar[k]*br[k] - ai[k]*bi[k]
		fi[k] += ar[k]*bi[k] + ai[k]*br[k]
	}
}

// mulAccPair is the portable MulAccPairTo kernel.
func mulAccPair(f, a1, b1, a2, b2 *HalfPoly) {
	fr, fi := f.Re, f.Im
	a1r, a1i := a1.Re, a1.Im
	b1r, b1i := b1.Re, b1.Im
	a2r, a2i := a2.Re, a2.Im
	b2r, b2i := b2.Re, b2.Im
	for k := range fr {
		fr[k] += a1r[k]*b1r[k] - a1i[k]*b1i[k] + a2r[k]*b2r[k] - a2i[k]*b2i[k]
		fi[k] += a1r[k]*b1i[k] + a1i[k]*b1r[k] + a2r[k]*b2i[k] + a2i[k]*b2r[k]
	}
}

// halfStage describes one radix-4 pass: block size s, quarter q = s/4, the
// offset of its twiddles in the flat tables and in the vector layouts of
// the AVX2 kernels (q >= 4) and the AVX-512 kernels (q >= 8).
type halfStage struct {
	s, q, off, voff, voff8 int
}

// halfTables holds the immutable per-N precomputed data of the half
// transform: fold twiddles e^{±iπj/N} and the per-stage FFT twiddles, in
// the scalar layout of the Go kernels and the 4- and 8-lane vector layouts
// of the AVX2 and AVX-512 kernels (simd_amd64.s).
type halfTables struct {
	n, m   int
	foldRe []float64 // cos(πj/N), j < M
	foldIm []float64 // sin(πj/N), j < M
	stages []halfStage
	fwdRe  []float64 // per stage, per j: w^j, w^{2j}, w^{3j} with w = e^{-2πi/s}
	fwdIm  []float64
	radix2 bool // trailing size-2 stage when log2 M is odd

	// vecTw holds, for every stage with q >= 4 and every group of four
	// consecutive j, the 24 values [w1r w1i w2r w2i w3r w3i]×4 lanes in
	// load order, so one radix-4 step reads 192 contiguous bytes.
	vecTw []float64
	// tailTw holds the twiddles of the fused q = 2 + radix-2 tail (set when
	// radix2 and M >= 8) as four 4-lane vectors: re and im of the lanes
	// (y0, y0, y2, y2) at j = (0, 1, 0, 1), then of (y1, y1, y3, y3).
	tailTw [16]float64
	// vecTw8 and tailTw8 are vecTw (stages with q >= 8, groups of eight j,
	// 48 values per group) and tailTw for the AVX-512 kernels: tailTw8
	// holds re then im of the lanes (y0, y0, y1, y1, y2, y2, y3, y3) at
	// j = (0, 1, …).
	vecTw8  []float64
	tailTw8 [16]float64
}

var (
	halfMu    sync.Mutex
	halfCache atomic.Pointer[map[int]*halfTables]
)

// halfTablesFor returns the shared tables for ring degree n. The cache is an
// immutable map snapshot behind an atomic pointer: lookups after the first
// construction of a size are a single atomic load with no locking
// (NewProcessor is called once per worker per run, often from many
// goroutines at once). Inserting a new size copies the snapshot under
// halfMu and publishes the extended map.
func halfTablesFor(n int) *halfTables {
	if m := halfCache.Load(); m != nil {
		if t, ok := (*m)[n]; ok {
			return t
		}
	}
	halfMu.Lock()
	defer halfMu.Unlock()
	old := halfCache.Load()
	if old != nil {
		if t, ok := (*old)[n]; ok {
			return t
		}
	}
	t := newHalfTables(n)
	next := make(map[int]*halfTables, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[n] = t
	halfCache.Store(&next)
	return t
}

func newHalfTables(n int) *halfTables {
	if n < 4 || n&(n-1) != 0 {
		panic("torus: half transform requires a power-of-two ring degree >= 4")
	}
	m := n / 2
	t := &halfTables{n: n, m: m}
	t.foldRe = make([]float64, m)
	t.foldIm = make([]float64, m)
	for j := 0; j < m; j++ {
		ang := math.Pi * float64(j) / float64(n)
		t.foldRe[j] = math.Cos(ang)
		t.foldIm[j] = math.Sin(ang)
	}
	for s := m; s >= 4; s >>= 2 {
		q := s / 4
		t.stages = append(t.stages, halfStage{s: s, q: q, off: len(t.fwdRe)})
		for j := 0; j < q; j++ {
			for r := 1; r <= 3; r++ {
				ang := -2 * math.Pi * float64(j*r) / float64(s)
				t.fwdRe = append(t.fwdRe, math.Cos(ang))
				t.fwdIm = append(t.fwdIm, math.Sin(ang))
			}
		}
		if s == 8 { // next size is 2: handled by the radix-2 tail
			t.radix2 = true
			break
		}
	}
	if m == 2 {
		t.radix2 = true
	}

	for i := range t.stages {
		st := &t.stages[i]
		if st.q >= 4 {
			st.voff = len(t.vecTw)
			t.vecTw = t.appendVecTw(t.vecTw, *st, 4)
		}
		if st.q >= 8 {
			st.voff8 = len(t.vecTw8)
			t.vecTw8 = t.appendVecTw(t.vecTw8, *st, 8)
		}
	}
	if t.radix2 && m >= 8 {
		last := t.stages[len(t.stages)-1] // s = 8, q = 2
		w := func(j, r int) (float64, float64) {
			if r == 0 {
				return 1, 0
			}
			k := last.off + 3*j + r - 1
			return t.fwdRe[k], t.fwdIm[k]
		}
		for lane, jr := range [4][2]int{{0, 0}, {1, 0}, {0, 2}, {1, 2}} {
			t.tailTw[lane], t.tailTw[4+lane] = w(jr[0], jr[1])
		}
		for lane, jr := range [4][2]int{{0, 1}, {1, 1}, {0, 3}, {1, 3}} {
			t.tailTw[8+lane], t.tailTw[12+lane] = w(jr[0], jr[1])
		}
		for lane := 0; lane < 8; lane++ {
			t.tailTw8[lane], t.tailTw8[8+lane] = w(lane%2, lane/2)
		}
	}
	return t
}

// appendVecTw appends the twiddles of stage st to tw in the load order of a
// vector kernel of the given width: per group of that many consecutive j,
// [w1r w1i w2r w2i w3r w3i], one vector each.
func (t *halfTables) appendVecTw(tw []float64, st halfStage, lanes int) []float64 {
	for g := 0; g < st.q; g += lanes {
		for r := 0; r < 3; r++ {
			for lane := 0; lane < lanes; lane++ {
				tw = append(tw, t.fwdRe[st.off+3*(g+lane)+r])
			}
			for lane := 0; lane < lanes; lane++ {
				tw = append(tw, t.fwdIm[st.off+3*(g+lane)+r])
			}
		}
	}
	return tw
}

// fft is the forward M-point transform (ω = e^{-2πi/M}), leaving the
// spectrum in digit-reversed order.
func (t *halfTables) fft(re, im []float64) {
	for _, st := range t.stages {
		t.fwdStage(st, re, im)
	}
	if t.radix2 {
		radix2(re[:t.m], im[:t.m])
	}
}

// fwdStage runs one forward radix-4 decimation-in-frequency pass.
func (t *halfTables) fwdStage(st halfStage, re, im []float64) {
	s, q := st.s, st.q
	for b := 0; b < t.m; b += s {
		tw := st.off
		for j := b; j < b+q; j++ {
			i1 := j + q
			i2 := i1 + q
			i3 := i2 + q
			x0r, x0i := re[j], im[j]
			x1r, x1i := re[i1], im[i1]
			x2r, x2i := re[i2], im[i2]
			x3r, x3i := re[i3], im[i3]
			ar, ai := x0r+x2r, x0i+x2i // x0 + x2
			br, bi := x0r-x2r, x0i-x2i // x0 - x2
			cr, ci := x1r+x3r, x1i+x3i // x1 + x3
			dr, di := x1r-x3r, x1i-x3i // x1 - x3
			re[j], im[j] = ar+cr, ai+ci
			w1r, w1i := t.fwdRe[tw], t.fwdIm[tw]
			w2r, w2i := t.fwdRe[tw+1], t.fwdIm[tw+1]
			w3r, w3i := t.fwdRe[tw+2], t.fwdIm[tw+2]
			tw += 3
			// y1 = (b - i·d)·w^j
			t1r, t1i := br+di, bi-dr
			re[i1], im[i1] = t1r*w1r-t1i*w1i, t1r*w1i+t1i*w1r
			// y2 = (a - c)·w^{2j}
			t2r, t2i := ar-cr, ai-ci
			re[i2], im[i2] = t2r*w2r-t2i*w2i, t2r*w2i+t2i*w2r
			// y3 = (b + i·d)·w^{3j}
			t3r, t3i := br-di, bi+dr
			re[i3], im[i3] = t3r*w3r-t3i*w3i, t3r*w3i+t3i*w3r
		}
	}
}

// radix2 is the size-2 butterfly over adjacent pairs; it is its own inverse
// up to a factor of 2.
func radix2(re, im []float64) {
	for i := 0; i+1 < len(re); i += 2 {
		xr, xi := re[i], im[i]
		yr, yi := re[i+1], im[i+1]
		re[i], im[i] = xr+yr, xi+yi
		re[i+1], im[i+1] = xr-yr, xi-yi
	}
}

// ifft undoes fft up to an overall factor of M (folded into the unfold
// scaling by the callers): stages are inverted in reverse order with
// conjugated twiddles.
func (t *halfTables) ifft(re, im []float64) {
	if t.radix2 {
		radix2(re[:t.m], im[:t.m])
	}
	for si := len(t.stages) - 1; si >= 0; si-- {
		t.invStage(t.stages[si], re, im)
	}
}

// invStage inverts one fwdStage pass up to a factor of 4.
func (t *halfTables) invStage(st halfStage, re, im []float64) {
	s, q := st.s, st.q
	for b := 0; b < t.m; b += s {
		tw := st.off
		for j := b; j < b+q; j++ {
			i1 := j + q
			i2 := i1 + q
			i3 := i2 + q
			w1r, w1i := t.fwdRe[tw], t.fwdIm[tw]
			w2r, w2i := t.fwdRe[tw+1], t.fwdIm[tw+1]
			w3r, w3i := t.fwdRe[tw+2], t.fwdIm[tw+2]
			tw += 3
			y0r, y0i := re[j], im[j]
			// z_r = y_r · conj(w^{rj})
			y1r, y1i := re[i1], im[i1]
			z1r, z1i := y1r*w1r+y1i*w1i, y1i*w1r-y1r*w1i
			y2r, y2i := re[i2], im[i2]
			z2r, z2i := y2r*w2r+y2i*w2i, y2i*w2r-y2r*w2i
			y3r, y3i := re[i3], im[i3]
			z3r, z3i := y3r*w3r+y3i*w3i, y3i*w3r-y3r*w3i
			ar, ai := y0r+z2r, y0i+z2i // 2(x0+x2)
			br, bi := y0r-z2r, y0i-z2i // 2(x1+x3)
			cr, ci := z1r+z3r, z1i+z3i // 2(x0-x2)
			// i·(z1-z3) = 2(x1-x3)
			dr, di := -(z1i - z3i), z1r-z3r
			re[j], im[j] = ar+cr, ai+ci
			re[i1], im[i1] = br+dr, bi+di
			re[i2], im[i2] = ar-cr, ai-ci
			re[i3], im[i3] = br-dr, bi-di
		}
	}
}

// foldInt twists an integer polynomial into the M complex inputs of fft:
// c_j = (a_j - i·a_{j+M}) · e^{-iπj/N}.
func (t *halfTables) foldInt(re, im []float64, src []int32) {
	m := t.m
	for j := 0; j < m; j++ {
		a := float64(src[j])
		b := float64(src[j+m])
		re[j] = a*t.foldRe[j] - b*t.foldIm[j]
		im[j] = -(a*t.foldIm[j] + b*t.foldRe[j])
	}
}

// foldTorus is foldInt for torus coefficients read as signed integers.
func (t *halfTables) foldTorus(re, im []float64, src []Torus32) {
	m := t.m
	for j := 0; j < m; j++ {
		a := float64(int32(src[j]))
		b := float64(int32(src[j+m]))
		re[j] = a*t.foldRe[j] - b*t.foldIm[j]
		im[j] = -(a*t.foldIm[j] + b*t.foldRe[j])
	}
}

// untwistAdd scales the output of ifft by 1/M, undoes the fold twist and
// adds the rounded coefficients to dst.
func (t *halfTables) untwistAdd(dst []Torus32, re, im []float64) {
	m := t.m
	inv := 1 / float64(m)
	for j := 0; j < m; j++ {
		// c_j·e^{iπj/N}: real part is coefficient j, -imag is j+M.
		cr := re[j] * inv
		ci := im[j] * inv
		rr := cr*t.foldRe[j] - ci*t.foldIm[j]
		ri := cr*t.foldIm[j] + ci*t.foldRe[j]
		dst[j] += roundTorus(rr)
		dst[j+m] += roundTorus(-ri)
	}
}

// Processor owns the scratch buffers for transforms of one ring degree N;
// the twiddle tables are shared and immutable. A Processor is not safe for
// concurrent use: obtain one per goroutine with NewProcessor.
type Processor struct {
	n      int
	tab    *halfTables
	scRe   []float64 // inverse-transform scratch, M points
	scIm   []float64
	digits []int32 // one level's gadget digits where HalfDigits composes kernels
}

// NewProcessor returns a transform processor for ring degree n (a power of
// two, at least 4). Twiddle tables are computed once per size and shared.
func NewProcessor(n int) *Processor {
	return &Processor{
		n:      n,
		tab:    halfTablesFor(n),
		scRe:   make([]float64, n/2),
		scIm:   make([]float64, n/2),
		digits: make([]int32, n),
	}
}

// N returns the ring degree the processor was built for.
func (p *Processor) N() int { return p.n }

// HalfFoldInt transforms an integer polynomial into the half-complex
// domain.
func (p *Processor) HalfFoldInt(dst *HalfPoly, src *IntPoly) {
	t := p.tab
	if useAVX2 {
		t.foldIntAVX2(dst.Re, dst.Im, src.Coefs)
		t.fftAVX2(dst.Re, dst.Im)
		return
	}
	t.foldInt(dst.Re, dst.Im, src.Coefs)
	t.fft(dst.Re, dst.Im)
}

// HalfFoldTorus transforms a torus polynomial (coefficients as signed
// integers) into the half-complex domain.
func (p *Processor) HalfFoldTorus(dst *HalfPoly, src *TorusPoly) {
	t := p.tab
	if useAVX2 {
		t.foldTorusAVX2(dst.Re, dst.Im, src.Coefs)
		t.fftAVX2(dst.Re, dst.Im)
		return
	}
	t.foldTorus(dst.Re, dst.Im, src.Coefs)
	t.fft(dst.Re, dst.Im)
}

// AddHalfToTorus inverse-transforms src and adds the resulting polynomial
// to dst, rounding each coefficient to the nearest torus element.
func (p *Processor) AddHalfToTorus(dst *TorusPoly, src *HalfPoly) {
	t := p.tab
	if useAVX2 {
		t.ifftAVX2(p.scRe, p.scIm, src.Re, src.Im)
		t.untwistAddAVX2(dst.Coefs, p.scRe, p.scIm)
		return
	}
	copy(p.scRe, src.Re)
	copy(p.scIm, src.Im)
	t.ifft(p.scRe, p.scIm)
	t.untwistAdd(dst.Coefs, p.scRe, p.scIm)
}

// The external product works on flat runs of half-complex polynomials: its
// digit spectra, its accumulators and every bootstrapping-key entry are each
// one []float64 holding polynomials of ring degree N back to back, N floats
// apiece. Polynomial u of a run with M = N/2 points has its real parts at
// [uN, uN+M) and its imaginary parts at [uN+M, (u+1)N).

// HalfAt returns polynomial u of the flat run f of polynomials with m
// points. It is a view into f, not a copy.
func HalfAt(f []float64, m, u int) HalfPoly {
	o := 2 * m * u
	return HalfPoly{Re: f[o : o+m : o+m], Im: f[o+m : o+2*m : o+2*m]}
}

// HalfDigits gadget-decomposes the torus polynomial src and transforms the
// digit polynomials into the flat run dst, one per level: level j < l =
// len(dst)/N holds the balanced digits ((c + offset) >> (32 - (j+1)·baseLog))
// mod 2^baseLog - 2^(baseLog-1) of every coefficient c. The spectra equal
// GadgetDigit then HalfFoldInt level by level, bit for bit.
func (p *Processor) HalfDigits(dst []float64, src *TorusPoly, offset uint32, baseLog uint) {
	levels := len(dst) / p.n
	if levels*p.n != len(dst) || len(src.Coefs) != p.n {
		panic("torus: HalfDigits shape mismatch")
	}
	if useAVX2 {
		p.halfDigitsVec(dst, src.Coefs, levels, offset, baseLog, useAVX512)
		return
	}
	p.halfDigits(dst, src.Coefs, levels, offset, baseLog)
}

// halfDigits is the portable HalfDigits: each level's digits, fold and
// transform in turn.
func (p *Processor) halfDigits(dst []float64, src []Torus32, levels int, offset uint32, baseLog uint) {
	t := p.tab
	for j := 0; j < levels; j++ {
		gadgetDigit(p.digits, src, offset, 32-uint(j+1)*baseLog, baseLog)
		f := HalfAt(dst, t.m, j)
		t.foldInt(f.Re, f.Im, p.digits)
		t.fft(f.Re, f.Im)
	}
}

// MulAccRows sets every polynomial c of the flat run dst to the pointwise
// sum over the polynomials u of spec of spec[u]·key[u·C + c], C being the
// number of polynomials in dst: the multiply-accumulate of an external
// product, with spec its digit spectra and key a bootstrapping-key entry
// stored row by row. Each sum runs the FMA chain of MulAccPairTo over the
// rows in order from a cleared accumulator (that of MulAccTo for an odd
// last row), so it equals those calls bit for bit.
func (p *Processor) MulAccRows(dst, spec, key []float64) {
	outs, rows := len(dst)/p.n, len(spec)/p.n
	if outs*p.n != len(dst) || rows*p.n != len(spec) || len(key) != rows*outs*p.n {
		panic("torus: MulAccRows shape mismatch")
	}
	if useAVX2 {
		mulAccRowsVec(dst, spec, key, p.tab.m, rows, outs, useAVX512)
		return
	}
	mulAccRows(dst, spec, key, p.tab.m, rows, outs)
}

// mulAccRows is the portable MulAccRows: MulAccPairTo's kernel over the
// row pairs and MulAccTo's over an odd last row.
func mulAccRows(dst, spec, key []float64, m, rows, outs int) {
	clear(dst)
	u := 0
	for ; u+1 < rows; u += 2 {
		a1, a2 := HalfAt(spec, m, u), HalfAt(spec, m, u+1)
		for c := 0; c < outs; c++ {
			f, b1, b2 := HalfAt(dst, m, c), HalfAt(key, m, u*outs+c), HalfAt(key, m, (u+1)*outs+c)
			mulAccPair(&f, &a1, &b1, &a2, &b2)
		}
	}
	if u < rows {
		a := HalfAt(spec, m, u)
		for c := 0; c < outs; c++ {
			f, b := HalfAt(dst, m, c), HalfAt(key, m, u*outs+c)
			mulAcc(&f, &a, &b)
		}
	}
}

// RoundExactBound is the largest magnitude a transform result may have for
// its rounding onto the torus to be exact on every kernel tier. The AVX2
// and AVX-512 loops round by adding 1.5·2^52, which leaves round(r) mod
// 2^32 in the low mantissa bits only while |r| < 2^51; the Go path
// (roundTorus) is exact to 2^53. An external product sums (k+1)·l negacyclic products of a digit
// polynomial (|digit| ≤ Bg/2) and a torus polynomial (|coefficient| ≤ 2^31)
// of N terms each, so its results are bounded by (Bg/2)·2^31·N·(k+1)·l —
// 2^49.6 at Default128 — and params.GateParams.Validate rejects every
// parameter set whose worst case reaches this constant. The other half of
// exactness, the floating-point error of the transforms, is a statistical
// argument (digits
// and coefficients are uniform, so results are ~2^41 RMS and the error is
// orders of magnitude below 0.5); the differential tests against MulNaive
// check it on every tier.
const RoundExactBound = 1<<51 - 1

// roundTorus rounds a real value to the nearest 32-bit torus element,
// wrapping modulo 2^32. Exact for |r| < 2^53; kernel results stay within
// RoundExactBound.
func roundTorus(r float64) Torus32 {
	return Torus32(int64(math.Round(r)))
}
