package torus

// Vector kernels (simd_amd64.s) behind the public transform, pointwise,
// digit, subtraction, rotation and key-switch entry points, in two tiers
// picked once from CPUID: AVX2+FMA (four float64 or eight 32-bit lanes)
// everywhere, and on CPUs with AVX-512F an eight-lane tier for the
// transform (fold, radix-4 stages with q >= 8, both tails, untwist-add),
// the paired multiply-add and the external product's fused entry points
// (HalfDigits' digit-and-fold pass, MulAccRows). The *AVX2 and *Vec
// wrappers below check lengths in Go, hand the assembly element pointers
// and counts, take the zmm loop where useAVX512 is set and the ymm loop
// otherwise, and route what the vector loops do not cover (rings with
// M < 8, the q = 1 radix-4 stage of an even log2 M, ragged tails) to the
// portable kernels. On the ymm tier HalfDigits and MulAccRows compose the
// digit, fold, transform and multiply-add kernels. The two tiers give the
// same bits: every zmm lane runs the ymm butterflies and FMA chains.

// useAVX2 reports whether this CPU and OS run the AVX2+FMA kernels. It is
// decided once, here, from CPUID and XGETBV.
var useAVX2 = hasAVX2FMA()

// useAVX512 reports whether the transform and MulAccPairTo also run the
// AVX-512F loops.
var useAVX512 = useAVX2 && hasAVX512F()

func hasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // the OS saves XMM and YMM state
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// zmmState is the XCR0 mask of the state AVX-512 needs the OS to save:
// XMM, YMM, the opmask registers and both halves of the ZMM registers.
const zmmState = 0xe6

// hasAVX512F is called only once hasAVX2FMA has seen leaf 7 and OSXSAVE.
func hasAVX512F() bool {
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func avx2FoldInt(re, im *float64, src *int32, cos, sin *float64, m int)

//go:noescape
func avx2FoldTorus(re, im *float64, src *uint32, cos, sin *float64, m int)

//go:noescape
func avx2FwdStage(re, im *float64, blocks, q int, tw *float64)

//go:noescape
func avx2FwdTail(re, im *float64, blocks int, tw *float64)

//go:noescape
func avx2InvStage(re, im *float64, blocks, q int, tw *float64)

//go:noescape
func avx2InvTail(dre, dim, sre, sim *float64, blocks int, tw *float64)

//go:noescape
func avx2UntwistAdd(dst *uint32, re, im, cos, sin *float64, m int, scale float64)

//go:noescape
func avx2MulAcc(fr, fi, ar, ai, br, bi *float64, n int)

//go:noescape
func avx2MulAccPair(fr, fi, a1r, a1i, b1r, b1i, a2r, a2i, b2r, b2i *float64, n int)

//go:noescape
func avx512FoldInt(re, im *float64, src *int32, cos, sin *float64, m int)

//go:noescape
func avx512FoldTorus(re, im *float64, src *uint32, cos, sin *float64, m int)

//go:noescape
func avx512FwdStage(re, im *float64, blocks, q int, tw *float64)

//go:noescape
func avx512FwdTail(re, im *float64, blocks int, tw *float64)

//go:noescape
func avx512InvStage(re, im *float64, blocks, q int, tw *float64)

//go:noescape
func avx512InvTail(dre, dim, sre, sim *float64, blocks int, tw *float64)

//go:noescape
func avx512UntwistAdd(dst *uint32, re, im, cos, sin *float64, m int, scale float64)

//go:noescape
func avx512MulAccPair(fr, fi, a1r, a1i, b1r, b1i, a2r, a2i, b2r, b2i *float64, n int)

//go:noescape
func avx512DigitsFold(dst *float64, src *uint32, cos, sin *float64, m, levels int, offset, mask uint32, half int32, shift, step uint32)

//go:noescape
func avx512MulAccRows(dst, spec, key *float64, m, rows, outs int)

//go:noescape
func avx2Digit(dst *int32, src *uint32, n int, offset, mask uint32, half int32, shift uint32)

//go:noescape
func avx2Sub(dst, src *uint32, n int)

//go:noescape
func avx2RotSub(dst, x, y *uint32, n int, sign uint32)

//go:noescape
func avx2SwitchRows(acc, key, rows, ends *uint32, segs, members, stride int)

func (t *halfTables) foldIntAVX2(re, im []float64, src []int32) {
	t.foldIntVec(re, im, src, useAVX512)
}

func (t *halfTables) foldTorusAVX2(re, im []float64, src []Torus32) {
	t.foldTorusVec(re, im, src, useAVX512)
}

func (t *halfTables) fftAVX2(re, im []float64) { t.fftVec(re, im, useAVX512) }

func (t *halfTables) ifftAVX2(dre, dim, sre, sim []float64) {
	t.ifftVec(dre, dim, sre, sim, useAVX512)
}

func (t *halfTables) untwistAddAVX2(dst []Torus32, re, im []float64) {
	t.untwistAddVec(dst, re, im, useAVX512)
}

func mulAccPairAVX2(f, a1, b1, a2, b2 *HalfPoly) { mulAccPairVec(f, a1, b1, a2, b2, useAVX512) }

// The *Vec kernels below run the zmm loops when zmm is set and the ymm
// loops otherwise, so the tests and benchmarks can call either tier.

func (t *halfTables) foldIntVec(re, im []float64, src []int32, zmm bool) {
	m := t.m
	if m%4 != 0 {
		t.foldInt(re, im, src)
		return
	}
	_, _, _ = re[m-1], im[m-1], src[2*m-1]
	if zmm && m%8 == 0 {
		avx512FoldInt(&re[0], &im[0], &src[0], &t.foldRe[0], &t.foldIm[0], m)
		return
	}
	avx2FoldInt(&re[0], &im[0], &src[0], &t.foldRe[0], &t.foldIm[0], m)
}

func (t *halfTables) foldTorusVec(re, im []float64, src []Torus32, zmm bool) {
	m := t.m
	if m%4 != 0 {
		t.foldTorus(re, im, src)
		return
	}
	_, _, _ = re[m-1], im[m-1], src[2*m-1]
	if zmm && m%8 == 0 {
		avx512FoldTorus(&re[0], &im[0], &src[0], &t.foldRe[0], &t.foldIm[0], m)
		return
	}
	avx2FoldTorus(&re[0], &im[0], &src[0], &t.foldRe[0], &t.foldIm[0], m)
}

// fftVec is fft, one fwdStageVec per stage. M >= 8 is a multiple of both
// vector widths.
func (t *halfTables) fftVec(re, im []float64, zmm bool) {
	if t.m < 8 {
		t.fft(re, im)
		return
	}
	for _, st := range t.stages {
		t.fwdStageVec(st, re, im, zmm)
	}
}

// fwdStageVec runs one stage of fftVec: a radix-4 stage with q >= 8 (zmm)
// or q >= 4 (ymm) a vector of points at a time, the fused q = 2 + radix-2
// tail of an odd log2 M, or the portable q = 1 stage of an even one.
func (t *halfTables) fwdStageVec(st halfStage, re, im []float64, zmm bool) {
	m := t.m
	_, _ = re[m-1], im[m-1]
	switch {
	case zmm && st.q >= 8:
		avx512FwdStage(&re[0], &im[0], m/st.s, st.q, &t.vecTw8[st.voff8])
	case st.q >= 4:
		avx2FwdStage(&re[0], &im[0], m/st.s, st.q, &t.vecTw[st.voff])
	case st.q == 2 && zmm:
		avx512FwdTail(&re[0], &im[0], m/8, &t.tailTw8[0])
	case st.q == 2:
		avx2FwdTail(&re[0], &im[0], m/8, &t.tailTw[0])
	default:
		t.fwdStage(st, re, im)
	}
}

// ifftVec writes ifft(src) to dst, reading src only in its first pass.
func (t *halfTables) ifftVec(dre, dim, sre, sim []float64, zmm bool) {
	if t.m < 8 {
		copy(dre, sre)
		copy(dim, sim)
		t.ifft(dre, dim)
		return
	}
	t.invFirstVec(dre, dim, sre, sim, zmm)
	for si := len(t.stages) - 2; si >= 0; si-- {
		t.invStageVec(t.stages[si], dre, dim, zmm)
	}
}

// invFirstVec is the first pass of ifftVec, from src to dst: the fused
// tail, or a copy and the portable q = 1 stage.
func (t *halfTables) invFirstVec(dre, dim, sre, sim []float64, zmm bool) {
	m := t.m
	_, _, _, _ = dre[m-1], dim[m-1], sre[m-1], sim[m-1]
	switch {
	case t.radix2 && zmm:
		avx512InvTail(&dre[0], &dim[0], &sre[0], &sim[0], m/8, &t.tailTw8[0])
	case t.radix2:
		avx2InvTail(&dre[0], &dim[0], &sre[0], &sim[0], m/8, &t.tailTw[0])
	default:
		copy(dre, sre)
		copy(dim, sim)
		t.invStage(t.stages[len(t.stages)-1], dre, dim)
	}
}

// invStageVec inverts one radix-4 stage with q >= 4 in place.
func (t *halfTables) invStageVec(st halfStage, re, im []float64, zmm bool) {
	m := t.m
	_, _ = re[m-1], im[m-1]
	if zmm && st.q >= 8 {
		avx512InvStage(&re[0], &im[0], m/st.s, st.q, &t.vecTw8[st.voff8])
		return
	}
	avx2InvStage(&re[0], &im[0], m/st.s, st.q, &t.vecTw[st.voff])
}

func (t *halfTables) untwistAddVec(dst []Torus32, re, im []float64, zmm bool) {
	m := t.m
	if m%4 != 0 {
		t.untwistAdd(dst, re, im)
		return
	}
	_, _, _ = dst[2*m-1], re[m-1], im[m-1]
	if zmm && m%8 == 0 {
		avx512UntwistAdd(&dst[0], &re[0], &im[0], &t.foldRe[0], &t.foldIm[0], m, 1/float64(m))
		return
	}
	avx2UntwistAdd(&dst[0], &re[0], &im[0], &t.foldRe[0], &t.foldIm[0], m, 1/float64(m))
}

func mulAccAVX2(f, a, b *HalfPoly) {
	n := len(f.Re) &^ 3
	if n > 0 {
		_, _, _, _, _ = f.Im[n-1], a.Re[n-1], a.Im[n-1], b.Re[n-1], b.Im[n-1]
		avx2MulAcc(&f.Re[0], &f.Im[0], &a.Re[0], &a.Im[0], &b.Re[0], &b.Im[0], n)
	}
	if n < len(f.Re) {
		mulAcc(&HalfPoly{f.Re[n:], f.Im[n:]}, &HalfPoly{a.Re[n:], a.Im[n:]}, &HalfPoly{b.Re[n:], b.Im[n:]})
	}
}

// mulAccPairVec takes the zmm loop only where it covers the points the ymm
// loop would, so the Go tail is the same on both tiers.
func mulAccPairVec(f, a1, b1, a2, b2 *HalfPoly, zmm bool) {
	n := len(f.Re) &^ 3
	if n > 0 {
		_, _, _, _, _ = f.Im[n-1], a1.Re[n-1], a1.Im[n-1], b1.Re[n-1], b1.Im[n-1]
		_, _, _, _ = a2.Re[n-1], a2.Im[n-1], b2.Re[n-1], b2.Im[n-1]
		if zmm && n%8 == 0 {
			avx512MulAccPair(&f.Re[0], &f.Im[0], &a1.Re[0], &a1.Im[0], &b1.Re[0], &b1.Im[0],
				&a2.Re[0], &a2.Im[0], &b2.Re[0], &b2.Im[0], n)
		} else {
			avx2MulAccPair(&f.Re[0], &f.Im[0], &a1.Re[0], &a1.Im[0], &b1.Re[0], &b1.Im[0],
				&a2.Re[0], &a2.Im[0], &b2.Re[0], &b2.Im[0], n)
		}
	}
	if n < len(f.Re) {
		tail := func(p *HalfPoly) *HalfPoly { return &HalfPoly{p.Re[n:], p.Im[n:]} }
		mulAccPair(tail(f), tail(a1), tail(b1), tail(a2), tail(b2))
	}
}

// halfDigitsVec is HalfDigits on the vector tiers. The zmm tier extracts
// every level's digits and folds them in one pass (avx512DigitsFold), then
// transforms each level; the ymm tier, and rings the zmm pass does not
// cover, compose GadgetDigit and HalfFoldInt's kernels level by level.
func (p *Processor) halfDigitsVec(dst []float64, src []Torus32, levels int, offset uint32, baseLog uint, zmm bool) {
	t := p.tab
	m := t.m
	if zmm && m%8 == 0 {
		_, _ = dst[levels*2*m-1], src[2*m-1]
		avx512DigitsFold(&dst[0], &src[0], &t.foldRe[0], &t.foldIm[0], m, levels,
			offset, uint32(1)<<baseLog-1, int32(1)<<(baseLog-1), uint32(32-baseLog), uint32(baseLog))
		for j := 0; j < levels; j++ {
			f := HalfAt(dst, m, j)
			t.fftVec(f.Re, f.Im, zmm)
		}
		return
	}
	for j := 0; j < levels; j++ {
		gadgetDigitAVX2(p.digits, src, offset, 32-uint(j+1)*baseLog, baseLog)
		f := HalfAt(dst, m, j)
		t.foldIntVec(f.Re, f.Im, p.digits, zmm)
		t.fftVec(f.Re, f.Im, zmm)
	}
}

// mulAccRowsVec is MulAccRows on the vector tiers: on the zmm tier one
// pass keeps every output's sum in registers over all rows
// (avx512MulAccRows); elsewhere it composes the MulAccPairTo and MulAccTo
// kernels as mulAccRows does.
func mulAccRowsVec(dst, spec, key []float64, m, rows, outs int, zmm bool) {
	if zmm && m%32 == 0 {
		_, _, _ = dst[outs*2*m-1], spec[rows*2*m-1], key[rows*outs*2*m-1]
		avx512MulAccRows(&dst[0], &spec[0], &key[0], m, rows, outs)
		return
	}
	clear(dst)
	u := 0
	for ; u+1 < rows; u += 2 {
		a1, a2 := HalfAt(spec, m, u), HalfAt(spec, m, u+1)
		for c := 0; c < outs; c++ {
			f, b1, b2 := HalfAt(dst, m, c), HalfAt(key, m, u*outs+c), HalfAt(key, m, (u+1)*outs+c)
			mulAccPairVec(&f, &a1, &b1, &a2, &b2, zmm)
		}
	}
	if u < rows {
		a := HalfAt(spec, m, u)
		for c := 0; c < outs; c++ {
			f, b := HalfAt(dst, m, c), HalfAt(key, m, u*outs+c)
			mulAccAVX2(&f, &a, &b)
		}
	}
}

func gadgetDigitAVX2(dst []int32, src []Torus32, offset uint32, shift, baseLog uint) {
	n := len(src) &^ 7
	if n > 0 {
		_ = dst[n-1]
		avx2Digit(&dst[0], &src[0], n, offset, uint32(1)<<baseLog-1, int32(1)<<(baseLog-1), uint32(shift))
	}
	gadgetDigit(dst[n:], src[n:], offset, shift, baseLog)
}

func subAVX2(dst, src []Torus32) {
	n := len(src) &^ 7
	if n > 0 {
		_ = dst[n-1]
		avx2Sub(&dst[0], &src[0], n)
	}
	sub(dst[n:], src[n:])
}

func rotSubAVX2(dst, x, y []Torus32, sign uint32) {
	n := len(dst) &^ 7
	if n > 0 {
		_, _ = x[n-1], y[n-1]
		avx2RotSub(&dst[0], &x[0], &y[0], n, sign)
	}
	rotSub(dst[n:], x[n:], y[n:], sign)
}

// switchRowsAVX2 needs a stride that is a multiple of 8 words; SwitchRows
// has checked every segment end and row offset.
func switchRowsAVX2(acc, key []Torus32, rows, ends []uint32, members, stride int) {
	if len(rows) == 0 || len(ends) == 0 {
		return
	}
	avx2SwitchRows(&acc[0], &key[0], &rows[0], &ends[0], len(ends), members, stride)
}
