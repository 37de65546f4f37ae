// Package tgsw implements TGSW ciphertexts — the gadget-decomposed
// ring-GSW samples of the TFHE scheme — together with the external product
// TGSW ⊡ TLWE and the CMux operation that blind rotation is built from.
//
// The hot path keeps TGSW samples in the half-complex domain (HalfSample,
// see torus/half.go): the bootstrapping key is transformed once at
// key-generation time, so each external product costs only the forward
// transforms of the decomposed accumulator, pointwise multiply-accumulates,
// and the inverse transforms. One kernel — Scratch.ExternalProductAdd —
// serves every CMux, single or batched.
//
//pytfhe:cryptoroot
package tgsw

import (
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// Params carries the gadget decomposition geometry.
type Params struct {
	Levels  int // l
	BaseLog int // Bgbit
}

// Base returns the decomposition base Bg.
func (p Params) Base() int32 { return int32(1) << p.BaseLog }

// Offset returns the decomposition offset added to every torus coefficient
// so that the digit extraction below yields balanced digits in
// [-Bg/2, Bg/2).
func (p Params) Offset() uint32 {
	var offset uint32
	halfBase := uint32(1) << (p.BaseLog - 1)
	for j := 1; j <= p.Levels; j++ {
		offset += halfBase << (32 - uint(j)*uint(p.BaseLog))
	}
	return offset
}

// Key wraps a TLWE key for TGSW encryption.
type Key struct {
	TLWE   *tlwe.Key
	Params Params

	// Built by the first Encrypt and reused by later ones, so the keygen
	// loop allocates its transform buffers once. It makes Encrypt
	// single-goroutine per Key.
	enc *tlwe.Encryptor
}

// NewKey samples a fresh TGSW key over a ring of degree n with k masks.
func NewKey(n, k int, stdev float64, p Params, rng *trand.Source) *Key {
	return &Key{TLWE: tlwe.NewKey(n, k, stdev, rng), Params: p}
}

// Sample is a TGSW ciphertext: (k+1)*l TLWE rows arranged in k+1 blocks of
// l levels. Block b, level j is an encryption of m * s_b / Bg^(j+1) (with
// s_k = -1 handled by the body block).
type Sample struct {
	Rows   []*tlwe.Sample // length (k+1)*l
	K      int
	Params Params
}

// NewSample returns a zero TGSW sample for ring degree n with k masks.
func NewSample(n, k int, p Params) *Sample {
	s := &Sample{K: k, Params: p, Rows: make([]*tlwe.Sample, (k+1)*p.Levels)}
	for i := range s.Rows {
		s.Rows[i] = tlwe.NewSample(n, k)
	}
	return s
}

// Encrypt encrypts the small integer message m (typically a key bit) into
// dst under key: every row is a fresh zero encryption, then m*H is added on
// the gadget diagonal. Not safe for concurrent use on one Key.
func Encrypt(dst *Sample, m int32, alpha float64, key *Key, rng *trand.Source) {
	l := key.Params.Levels
	if key.enc == nil {
		key.enc = tlwe.NewEncryptor(key.TLWE)
	}
	for _, row := range dst.Rows {
		key.enc.EncryptZero(row, alpha, rng)
	}
	for bloc := 0; bloc <= dst.K; bloc++ {
		for j := 0; j < l; j++ {
			// h_j = 1 / Bg^(j+1) on the torus.
			h := uint32(1) << (32 - uint(j+1)*uint(key.Params.BaseLog))
			row := dst.Rows[bloc*l+j]
			row.A[bloc].Coefs[0] += uint32(m) * h
		}
	}
}

// DecomposeTLWE gadget-decomposes every polynomial of the TLWE sample src
// into l integer polynomials with balanced digits. dst must hold
// (k+1)*Levels integer polynomials; block c occupies dst[c*l .. c*l+l-1].
func DecomposeTLWE(dst []*torus.IntPoly, src *tlwe.Sample, p Params) {
	l := p.Levels
	for c, poly := range src.A {
		DecomposePoly(dst[c*l:(c+1)*l], poly, p)
	}
}

// DecomposePoly gadget-decomposes one torus polynomial into l balanced
// digit polynomials: sum_j dst[j]/Bg^(j+1) ≈ src with error below 1/Bg^l.
func DecomposePoly(dst []*torus.IntPoly, src *torus.TorusPoly, p Params) {
	offset := p.Offset()
	for j := 0; j < p.Levels; j++ {
		shift := 32 - uint(j+1)*uint(p.BaseLog)
		torus.GadgetDigit(dst[j].Coefs, src.Coefs, offset, shift, uint(p.BaseLog))
	}
}

// HalfSample is a TGSW sample with every row polynomial in the half-complex
// domain: N/2 points per polynomial. It is the only stored form of the
// bootstrapping key, and it is flat, in the order the external product
// reads it.
type HalfSample struct {
	// Flat holds polynomial c of TLWE row u as the (u·(K+1) + c)-th
	// polynomial of a flat run (torus.HalfAt): N floats apiece, the N/2
	// real parts, then the N/2 imaginary parts. Rows are the Params.Levels
	// gadget levels of block 0, then of block 1, and so on.
	Flat   []float64
	K      int
	Params Params
}

// RowCount returns the number of TLWE rows, (K+1)·l.
func (h *HalfSample) RowCount() int { return (h.K + 1) * h.Params.Levels }

// PolyLen returns the floats one polynomial takes in Flat, N, or -1 when
// Flat does not hold a whole number of them.
func (h *HalfSample) PolyLen() int {
	polys := h.RowCount() * (h.K + 1)
	if polys <= 0 || len(h.Flat)%polys != 0 || len(h.Flat)/polys%2 != 0 {
		return -1
	}
	return len(h.Flat) / polys
}

// Poly returns polynomial c of row u: a view into Flat, not a copy.
func (h *HalfSample) Poly(u, c int) *torus.HalfPoly {
	hp := torus.HalfAt(h.Flat, h.PolyLen()/2, u*(h.K+1)+c)
	return &hp
}

// ToHalf transforms a coefficient-domain TGSW sample into the half-complex
// domain using proc.
func (s *Sample) ToHalf(proc *torus.Processor) *HalfSample {
	n := proc.N()
	h := &HalfSample{K: s.K, Params: s.Params, Flat: make([]float64, len(s.Rows)*(s.K+1)*n)}
	for u, row := range s.Rows {
		for c, poly := range row.A {
			proc.HalfFoldTorus(h.Poly(u, c), poly)
		}
	}
	return h
}

// Scratch holds the per-worker temporaries for external products so the hot
// loop performs no allocation. A Scratch (and its Processor) must not be
// shared between goroutines.
type Scratch struct {
	Proc *torus.Processor
	spec []float64 // (k+1)·l digit spectra, a flat run
	facc []float64 // k+1 accumulator spectra, a flat run
	diff *tlwe.Sample
}

// NewScratch allocates scratch space for ring degree n, k masks and gadget
// parameters p.
func NewScratch(n, k int, p Params) *Scratch {
	return &Scratch{
		Proc: torus.NewProcessor(n),
		spec: make([]float64, (k+1)*p.Levels*n),
		facc: make([]float64, (k+1)*n),
		diff: tlwe.NewSample(n, k),
	}
}

// NewBatchScratch returns the scratch for batched rotations. The kernel
// walks a batch member by member, so one member's temporaries serve a batch
// of any size; the capacity argument is accepted so that callers sized for a
// batch (the benchmark's probes among them) keep their call shape.
func NewBatchScratch(n, k int, p Params, capacity int) *Scratch {
	return NewScratch(n, k, p)
}

// ExternalProductAdd computes acc += g ⊡ src, where g is a half-domain TGSW
// sample and src a coefficient-domain TLWE sample. acc and src may not
// alias. Two fused kernels do the work between the inverse transforms:
// HalfDigits decomposes each polynomial of src and transforms its l digit
// polynomials, and MulAccRows sums every spectrum against g's rows for all
// k+1 outputs at once, reading g.Flat in storage order. The result equals
// the exact integer convolutions: floating-point error stays far below the
// rounding threshold (see torus/half.go).
func (sc *Scratch) ExternalProductAdd(acc *tlwe.Sample, g *HalfSample, src *tlwe.Sample) {
	n := sc.Proc.N()
	l := g.Params.Levels
	offset, baseLog := g.Params.Offset(), uint(g.Params.BaseLog)
	for c, poly := range src.A {
		sc.Proc.HalfDigits(sc.spec[c*l*n:(c+1)*l*n], poly, offset, baseLog)
	}
	sc.Proc.MulAccRows(sc.facc, sc.spec[:len(src.A)*l*n], g.Flat)
	for c := range src.A {
		f := torus.HalfAt(sc.facc, n/2, c)
		sc.Proc.AddHalfToTorus(acc.A[c], &f)
	}
	acc.Variance += src.Variance // coarse tracking; exact analysis in docs
}

// CMuxRotateInPlace performs the blind-rotation step
// acc += g ⊡ ((X^a - 1) · acc), which equals CMux(g, X^a·acc, acc) when g
// encrypts a bit: the accumulator is multiplied by X^a iff the encrypted
// bit is one.
func (sc *Scratch) CMuxRotateInPlace(acc *tlwe.Sample, g *HalfSample, a int) {
	sc.diff.MulByXaiMinusOne(a, acc)
	sc.ExternalProductAdd(acc, g, sc.diff)
}

// CMuxRotateBatchHalf performs CMuxRotateInPlace(accs[m], g, as[m]) for
// every batch member against the single TGSW sample g, so the caller's
// key-index-outer loop streams g's rows through the cache once per batch
// instead of once per gate. All as[m] should be nonzero (zero rotations are
// identity CMuxes; callers skip them before batching).
func (sc *Scratch) CMuxRotateBatchHalf(accs []*tlwe.Sample, g *HalfSample, as []int) {
	if len(as) != len(accs) {
		panic("tgsw: CMuxRotateBatchHalf rotation count mismatch")
	}
	for m, acc := range accs {
		sc.CMuxRotateInPlace(acc, g, as[m])
	}
}

// CMux computes dst = c0 + g ⊡ (c1 - c0): dst decrypts to c1's message when
// g encrypts 1 and to c0's when g encrypts 0. dst may alias c0 but not c1.
func (sc *Scratch) CMux(dst *tlwe.Sample, g *HalfSample, c1, c0 *tlwe.Sample) {
	sc.diff.Copy(c1)
	sc.diff.SubFrom(c0)
	if dst != c0 {
		dst.Copy(c0)
	}
	sc.ExternalProductAdd(dst, g, sc.diff)
}
