package torus

// AVX2+FMA kernels (simd_amd64.s) behind the public transform, pointwise,
// digit, subtraction, rotation and key-switch entry points. The wrappers
// below check lengths in Go, hand the assembly element pointers and counts,
// and route what the vector loops do not cover (rings with M < 8, the
// q = 1 radix-4 stage of an even log2 M, ragged tails) to the portable
// kernels.

// useAVX2 reports whether this CPU and OS run the AVX2+FMA kernels. It is
// decided once, here, from CPUID and XGETBV.
var useAVX2 = hasAVX2FMA()

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
func avx2Digit(dst *int32, src *uint32, n int, offset, mask uint32, half int32, shift uint32)

//go:noescape
func avx2Sub(dst, src *uint32, n int)

//go:noescape
func avx2RotSub(dst, x, y *uint32, n int, sign uint32)

//go:noescape
func avx2SwitchRows(acc, key, rows, ends *uint32, segs, members, stride int)

func (t *halfTables) foldIntAVX2(re, im []float64, src []int32) {
	m := t.m
	if m%4 != 0 {
		t.foldInt(re, im, src)
		return
	}
	_, _, _ = re[m-1], im[m-1], src[2*m-1]
	avx2FoldInt(&re[0], &im[0], &src[0], &t.foldRe[0], &t.foldIm[0], m)
}

func (t *halfTables) foldTorusAVX2(re, im []float64, src []Torus32) {
	m := t.m
	if m%4 != 0 {
		t.foldTorus(re, im, src)
		return
	}
	_, _, _ = re[m-1], im[m-1], src[2*m-1]
	avx2FoldTorus(&re[0], &im[0], &src[0], &t.foldRe[0], &t.foldIm[0], m)
}

// fftAVX2 is fft: radix-4 stages with q >= 4 four points at a time, then
// either the fused q = 2 + radix-2 tail (odd log2 M) or the portable q = 1
// stage (even log2 M).
func (t *halfTables) fftAVX2(re, im []float64) {
	m := t.m
	if m < 8 {
		t.fft(re, im)
		return
	}
	_, _ = re[m-1], im[m-1]
	for _, st := range t.stages {
		switch {
		case st.q >= 4:
			avx2FwdStage(&re[0], &im[0], m/st.s, st.q, &t.vecTw[st.voff])
		case st.q == 2:
			avx2FwdTail(&re[0], &im[0], m/8, &t.tailTw[0])
		default:
			t.fwdStage(st, re, im)
		}
	}
}

// ifftAVX2 writes ifft(src) to dst, reading src only in its first pass.
func (t *halfTables) ifftAVX2(dre, dim, sre, sim []float64) {
	m := t.m
	if m < 8 {
		copy(dre, sre)
		copy(dim, sim)
		t.ifft(dre, dim)
		return
	}
	_, _, _, _ = dre[m-1], dim[m-1], sre[m-1], sim[m-1]
	last := len(t.stages) - 1
	if t.radix2 {
		avx2InvTail(&dre[0], &dim[0], &sre[0], &sim[0], m/8, &t.tailTw[0])
	} else {
		copy(dre, sre)
		copy(dim, sim)
		t.invStage(t.stages[last], dre, dim)
	}
	for si := last - 1; si >= 0; si-- {
		st := t.stages[si]
		avx2InvStage(&dre[0], &dim[0], m/st.s, st.q, &t.vecTw[st.voff])
	}
}

func (t *halfTables) untwistAddAVX2(dst []Torus32, re, im []float64) {
	m := t.m
	if m%4 != 0 {
		t.untwistAdd(dst, re, im)
		return
	}
	_, _, _ = dst[2*m-1], re[m-1], im[m-1]
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

func mulAccPairAVX2(f, a1, b1, a2, b2 *HalfPoly) {
	n := len(f.Re) &^ 3
	if n > 0 {
		_, _, _, _, _ = f.Im[n-1], a1.Re[n-1], a1.Im[n-1], b1.Re[n-1], b1.Im[n-1]
		_, _, _, _ = a2.Re[n-1], a2.Im[n-1], b2.Re[n-1], b2.Im[n-1]
		avx2MulAccPair(&f.Re[0], &f.Im[0], &a1.Re[0], &a1.Im[0], &b1.Re[0], &b1.Im[0],
			&a2.Re[0], &a2.Im[0], &b2.Re[0], &b2.Im[0], n)
	}
	if n < len(f.Re) {
		tail := func(p *HalfPoly) *HalfPoly { return &HalfPoly{p.Re[n:], p.Im[n:]} }
		mulAccPair(tail(f), tail(a1), tail(b1), tail(a2), tail(b2))
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
