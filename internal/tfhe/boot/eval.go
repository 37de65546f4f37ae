package boot

import (
	"errors"
	"fmt"
	"time"

	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
)

// LUT is a programmable-bootstrap test function: the torus value the
// bootstrap outputs for message m.
//
// TFHE's blind rotation evaluates an arbitrary lookup table *during* the
// noise refresh (the property the paper's §II.B highlights). The test
// vector is programmed so that coefficient 0 of the rotated accumulator is
// lut(m) when the input phase encodes message m. Because the ring is
// negacyclic (X^N = -1), a test vector can only represent a function over
// half the torus directly: inputs must encode messages in [0, msize/2), or
// the function must satisfy the antiperiodic condition
// f(m + msize/2) = -f(m). The LUT entry points implement the half-torus
// convention: messages in the upper half decrypt to -lut(m - msize/2).
type LUT = func(m int) torus.Torus32

// Evaluator performs bootstrapping with preallocated scratch space. Every
// entry point — single or batched, constant test vector or programmable,
// with or without the final key switch — runs the same pipeline: program
// one accumulator per member, blind-rotate them all in one
// structure-of-arrays loop (key index outermost, so each bootstrapping-key
// entry is loaded once and applied to every member before advancing),
// extract every member, and optionally key-switch the whole batch in one
// pass over the switching key (row group outermost, for the same reason).
// A single bootstrap is the batch of one, so per-member results never
// depend on how members were grouped.
//
// An Evaluator is not safe for concurrent use; create one per worker
// goroutine (they can share the same CloudKey, which is immutable after
// generation).
type Evaluator struct {
	CK      *CloudKey
	Prof    Profile
	Profile bool // when true, phases are timed into Prof

	scratch  *tgsw.Scratch
	accs     []*tlwe.Sample
	testvect *torus.TorusPoly
	rotated  *torus.TorusPoly
	extrs    []*lwe.Sample // per-member extracted samples awaiting the key switch
	kss      lwe.SwitchScratch
	bara     []int // member-major [b][n] mod-switched mask coefficients
	sel      []int
	selAccs  []*tlwe.Sample

	// One-member argument slices for the single-gate entry points (one), so
	// they reach the shared pipeline without allocating.
	dst1, src1 [1]*lwe.Sample
	mu1        [1]torus.Torus32
	lut1       [1]LUT
}

// NewEvaluator returns an evaluator bound to ck.
func NewEvaluator(ck *CloudKey) *Evaluator {
	return NewBatchEvaluator(ck, 1)
}

// NewBatchEvaluator returns an evaluator bound to ck, pre-sized for batches
// of up to capacity ciphertexts (any evaluator grows on demand).
func NewBatchEvaluator(ck *CloudKey, capacity int) *Evaluator {
	p := ck.Params
	gp := tgsw.Params{Levels: p.DecompLevels, BaseLog: p.DecompBaseLog}
	e := &Evaluator{
		CK:       ck,
		scratch:  tgsw.NewScratch(p.PolyDegree, p.RingCount, gp),
		testvect: torus.NewTorusPoly(p.PolyDegree),
		rotated:  torus.NewTorusPoly(p.PolyDegree),
	}
	e.grow(capacity)
	return e
}

func (e *Evaluator) grow(b int) {
	p := e.CK.Params
	for len(e.accs) < b {
		e.accs = append(e.accs, tlwe.NewSample(p.PolyDegree, p.RingCount))
		e.extrs = append(e.extrs, lwe.NewSample(p.ExtractedLWEDimension()))
	}
	if cap(e.bara) < b*p.LWEDimension {
		e.bara = make([]int, b*p.LWEDimension)
	}
	if cap(e.sel) < b {
		e.sel = make([]int, 0, b)
		e.selAccs = make([]*tlwe.Sample, 0, b)
	}
}

// modSwitch2N rescales a torus element to Z_{2N}.
func modSwitch2N(phase torus.Torus32, twoN int) int {
	v := (uint64(phase)*uint64(twoN) + (1 << 31)) >> 32
	return int(v) & (twoN - 1)
}

// check validates a call before any rotation runs: slice lengths agree,
// every input has the gate-key dimension, every output the dimension the
// requested form lives under, and — when any member is programmable — the
// message space fits the ring.
func (e *Evaluator) check(dst []*lwe.Sample, mu []torus.Torus32, luts []LUT, msize int, src []*lwe.Sample, keySwitch bool) error {
	if len(dst) != len(src) || len(mu) != len(src) {
		return fmt.Errorf("boot: batch length mismatch: dst=%d mu=%d src=%d", len(dst), len(mu), len(src))
	}
	p := e.CK.Params
	outDim := p.ExtractedLWEDimension()
	if keySwitch {
		outDim = p.LWEDimension
	}
	for m, s := range src {
		if s.Dimension() != p.LWEDimension {
			return fmt.Errorf("boot: batch member %d: input dimension %d, want %d", m, s.Dimension(), p.LWEDimension)
		}
		if dst[m].Dimension() != outDim {
			return fmt.Errorf("boot: batch member %d: output dimension %d, want %d", m, dst[m].Dimension(), outDim)
		}
	}
	if luts != nil {
		if msize <= 0 || msize%2 != 0 {
			return fmt.Errorf("boot: LUT message space must be a positive even number, got %d", msize)
		}
		if msize > 2*p.PolyDegree {
			return fmt.Errorf("boot: LUT message space %d exceeds 2N = %d", msize, 2*p.PolyDegree)
		}
	}
	return nil
}

// bootstrap is the pipeline behind every entry point. Member m is a classic
// gate bootstrap with the constant test vector mu[m] when luts is nil or
// luts[m] is nil, and a programmable bootstrap of luts[m] over msize
// message slots otherwise.
func (e *Evaluator) bootstrap(dst []*lwe.Sample, mu []torus.Torus32, luts []LUT, msize int, src []*lwe.Sample, keySwitch bool) error {
	if err := e.check(dst, mu, luts, msize, src, keySwitch); err != nil {
		return err
	}
	b := len(src)
	if b == 0 {
		return nil
	}
	e.grow(b)
	var start time.Time
	if e.Profile {
		start = time.Now()
	}
	e.program(mu, luts, msize, src)
	e.blindRotate(src)
	if e.Profile {
		now := time.Now()
		e.Prof.BlindRotate += now.Sub(start)
		start = now
	}
	out := dst
	if keySwitch {
		out = e.extrs[:b]
	}
	for m, acc := range e.accs[:b] {
		tlwe.ExtractSample(out[m], acc)
	}
	if e.Profile {
		now := time.Now()
		e.Prof.Extract += now.Sub(start)
		start = now
	}
	if !keySwitch {
		return nil
	}
	if err := e.CK.KS.ApplyBatch(dst, out, &e.kss); err != nil {
		return err
	}
	if e.Profile {
		e.Prof.KeySwitch += time.Since(start)
		e.Prof.Gates += int64(b)
	}
	return nil
}

// program initializes accumulator m with member m's test vector rotated by
// its mod-switched body. For a programmable member the input phase is
// offset by half a slot so message v occupies ring positions
// [v·2N/msize, (v+1)·2N/msize) — this keeps v = 0 robust against negative
// noise — and coefficient j then holds lut(floor(j·msize/2N)).
func (e *Evaluator) program(mu []torus.Torus32, luts []LUT, msize int, src []*lwe.Sample) {
	n := e.CK.Params.PolyDegree
	twoN := 2 * n
	for m, s := range src {
		body := s.B
		if luts == nil || luts[m] == nil {
			for j := range e.testvect.Coefs {
				e.testvect.Coefs[j] = mu[m]
			}
		} else {
			for j := 0; j < n; j++ {
				e.testvect.Coefs[j] = luts[m](j * msize / twoN)
			}
			body += torus.Torus32((uint64(1) << 32) / uint64(2*msize))
		}
		if barb := modSwitch2N(body, twoN); barb != 0 {
			e.rotated.MulByXai(twoN-barb, e.testvect)
		} else {
			e.rotated.Copy(e.testvect)
		}
		e.accs[m].NoiselessTrivial(e.rotated)
	}
}

// blindRotate runs the structure-of-arrays rotation over the programmed
// accumulators. Members whose mod-switched coefficient is zero at key index
// i are skipped (an identity CMux).
func (e *Evaluator) blindRotate(src []*lwe.Sample) {
	p := e.CK.Params
	n := p.LWEDimension
	twoN := 2 * p.PolyDegree
	for m, s := range src {
		row := e.bara[m*n : (m+1)*n]
		for i, a := range s.A {
			row[i] = modSwitch2N(a, twoN)
		}
	}
	for i := 0; i < n; i++ {
		sel := e.sel[:0]
		selAccs := e.selAccs[:0]
		for m := range src {
			if a := e.bara[m*n+i]; a != 0 {
				sel = append(sel, a)
				selAccs = append(selAccs, e.accs[m])
			}
		}
		e.scratch.CMuxRotateBatchHalf(selAccs, e.CK.BK[i], sel)
	}
}

// batch runs a batch entry point and records it as one batched dispatch.
func (e *Evaluator) batch(dst []*lwe.Sample, mu []torus.Torus32, luts []LUT, msize int, src []*lwe.Sample, keySwitch bool) error {
	err := e.bootstrap(dst, mu, luts, msize, src, keySwitch)
	if err == nil && e.Profile && len(src) > 0 {
		e.Prof.Batches++
		e.Prof.BatchedGates += int64(len(src))
	}
	return err
}

// one runs a single-gate entry point as the batch of one.
func (e *Evaluator) one(dst *lwe.Sample, mu torus.Torus32, lut LUT, msize int, src *lwe.Sample, keySwitch bool) error {
	e.dst1[0], e.mu1[0], e.lut1[0], e.src1[0] = dst, mu, lut, src
	var luts []LUT
	if lut != nil {
		luts = e.lut1[:]
	}
	return e.bootstrap(e.dst1[:], e.mu1[:], luts, msize, e.src1[:], keySwitch)
}

// Bootstrap performs the full gate bootstrap: blind rotation with the
// constant test vector mu, extraction, and key switch back to the
// n-dimensional gate key. dst decrypts to +mu when the phase of src lies in
// [0, 1/2) and to -mu otherwise.
func (e *Evaluator) Bootstrap(dst *lwe.Sample, mu torus.Torus32, src *lwe.Sample) error {
	return e.one(dst, mu, nil, 0, src, true)
}

// BootstrapWoKS is Bootstrap without the final key switch: the result lives
// under the extracted key, so dst must have dimension N·k.
func (e *Evaluator) BootstrapWoKS(dst *lwe.Sample, mu torus.Torus32, src *lwe.Sample) error {
	return e.one(dst, mu, nil, 0, src, false)
}

// BootstrapLUT evaluates dst = Enc(lut(m)) for an input encrypting message
// m in a space of msize slots (phase m/msize). msize must be even, at most
// 2N, and the encrypted message must lie in [0, msize/2) (see LUT). The
// output is key-switched to the gate key like a normal gate bootstrap.
func (e *Evaluator) BootstrapLUT(dst *lwe.Sample, lut LUT, msize int, src *lwe.Sample) error {
	if lut == nil {
		return errNilLUT
	}
	return e.one(dst, 0, lut, msize, src, true)
}

// BootstrapLUTWoKS is BootstrapLUT without the final key switch: the
// result lives under the extracted (N·k-dimensional) key.
func (e *Evaluator) BootstrapLUTWoKS(dst *lwe.Sample, lut LUT, msize int, src *lwe.Sample) error {
	if lut == nil {
		return errNilLUT
	}
	return e.one(dst, 0, lut, msize, src, false)
}

var errNilLUT = errors.New("boot: programmable bootstrap with a nil LUT")

// BootstrapBatch performs full gate bootstraps of the whole batch with
// constant test vectors mu[m]. Each member's output is bit-exact with
// Bootstrap on the same input.
func (e *Evaluator) BootstrapBatch(dst []*lwe.Sample, mu []torus.Torus32, src []*lwe.Sample) error {
	return e.batch(dst, mu, nil, 0, src, true)
}

// BootstrapBatchWoKS is BootstrapBatch without the key switch: every dst[m]
// must have dimension N·k.
func (e *Evaluator) BootstrapBatchWoKS(dst []*lwe.Sample, mu []torus.Torus32, src []*lwe.Sample) error {
	return e.batch(dst, mu, nil, 0, src, false)
}

// BootstrapMixedBatch bootstraps a batch mixing classic gate bootstraps and
// programmable members in one blind rotation: members with luts[m] == nil
// use the constant test vector mu[m] (bit-exact with Bootstrap), members
// with luts[m] != nil are programmed from their own test function over the
// msize message space (bit-exact with BootstrapLUT). The per-member
// accumulator initialization is the only divergence; the expensive
// key-streaming rotation is shared.
func (e *Evaluator) BootstrapMixedBatch(dst []*lwe.Sample, mu []torus.Torus32, luts []LUT, msize int, src []*lwe.Sample) error {
	if len(luts) != len(src) {
		return fmt.Errorf("boot: mixed batch length mismatch: luts=%d src=%d", len(luts), len(src))
	}
	return e.batch(dst, mu, luts, msize, src, true)
}
