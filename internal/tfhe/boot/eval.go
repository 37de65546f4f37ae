package boot

import (
	"fmt"
	"time"

	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
)

// TestVector is a bootstrap's test vector, given by its cells over the
// lower half of the torus: with c cells, a phase in [i/2c, (i+1)/2c) reads
// tv[i] — coefficient j of the ring test polynomial holds tv[⌊j·c/N⌋] — and,
// the ring being negacyclic (X^N = −1), a phase half a turn further reads
// −tv[i]. One cell is the constant test vector of gate bootstrapping: +mu
// on the lower half-torus, −mu on the upper. Programmable bootstrapping
// (the property the paper's §II.B highlights: a lookup table evaluated
// during the noise refresh) is any other vector; the caller places its
// messages mid-cell, as a gate plan's bias does. 1 ≤ c ≤ N.
type TestVector []torus.Torus32

// Evaluator performs bootstrapping with preallocated scratch space. Every
// entry point — single or batched, with or without the final key switch —
// runs the same pipeline: program one accumulator per member with its
// test vector, blind-rotate them all in one structure-of-arrays loop (key
// index outermost, so each bootstrapping-key entry is loaded once and
// applied to every member before advancing), extract every member, and
// optionally key-switch the whole batch in one pass over the switching key
// (row group outermost, for the same reason). A single bootstrap is the
// batch of one, so per-member results never depend on how members were
// grouped.
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

	// Argument scratch, so the single-member and constant-vector entry
	// points reach the shared pipeline without allocating.
	dst1, src1 [1]*lwe.Sample
	tv1        [1]TestVector
	mu1        [1]torus.Torus32
	mus        []TestVector // BootstrapBatch's one-cell vectors
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
// requested form lives under, and every test vector has 1..N cells.
func (e *Evaluator) check(dst []*lwe.Sample, tvs []TestVector, src []*lwe.Sample, keySwitch bool) error {
	if len(dst) != len(src) || len(tvs) != len(src) {
		return fmt.Errorf("boot: batch length mismatch: dst=%d tv=%d src=%d", len(dst), len(tvs), len(src))
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
		if c := len(tvs[m]); c < 1 || c > p.PolyDegree {
			return fmt.Errorf("boot: batch member %d: test vector has %d cells, want 1..%d", m, c, p.PolyDegree)
		}
	}
	return nil
}

// bootstrap is the pipeline behind every entry point: member m bootstraps
// src[m] with the test vector tvs[m].
func (e *Evaluator) bootstrap(dst []*lwe.Sample, tvs []TestVector, src []*lwe.Sample, keySwitch bool) error {
	if err := e.check(dst, tvs, src, keySwitch); err != nil {
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
	e.program(tvs, src)
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
	}
	return nil
}

// program initializes accumulator m with member m's test vector rotated by
// its mod-switched body.
func (e *Evaluator) program(tvs []TestVector, src []*lwe.Sample) {
	n := e.CK.Params.PolyDegree
	twoN := 2 * n
	coefs := e.testvect.Coefs
	for m, s := range src {
		tv := tvs[m]
		c := len(tv)
		for i, v := range tv {
			// Cell i holds the coefficients j with ⌊j·c/N⌋ = i.
			lo, hi := (i*n+c-1)/c, ((i+1)*n+c-1)/c
			for j := lo; j < hi; j++ {
				coefs[j] = v
			}
		}
		if barb := modSwitch2N(s.B, twoN); barb != 0 {
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

// BootstrapOne bootstraps src with the test vector tv: blind rotation,
// extraction and, when keySwitch is set, the key switch back to the
// n-dimensional gate key. dst has dimension n with the key switch and N·k
// (the extracted key) without it. It runs as the batch of one.
func (e *Evaluator) BootstrapOne(dst *lwe.Sample, tv TestVector, src *lwe.Sample, keySwitch bool) error {
	e.dst1[0], e.tv1[0], e.src1[0] = dst, tv, src
	return e.bootstrap(e.dst1[:], e.tv1[:], e.src1[:], keySwitch)
}

// BootstrapMany is the slice form of BootstrapOne: it bootstraps src[m]
// with tvs[m] for every member in one pass. Each member's output is
// bit-exact with BootstrapOne on the same input.
func (e *Evaluator) BootstrapMany(dst []*lwe.Sample, tvs []TestVector, src []*lwe.Sample, keySwitch bool) error {
	return e.bootstrap(dst, tvs, src, keySwitch)
}

// Bootstrap is BootstrapOne with the constant test vector mu, key-switched:
// dst decrypts to +mu when the phase of src lies in [0, 1/2) and to -mu
// otherwise.
func (e *Evaluator) Bootstrap(dst *lwe.Sample, mu torus.Torus32, src *lwe.Sample) error {
	e.mu1[0] = mu
	return e.BootstrapOne(dst, e.mu1[:], src, true)
}

// BootstrapWoKS is Bootstrap without the final key switch: the result lives
// under the extracted key, so dst must have dimension N·k.
func (e *Evaluator) BootstrapWoKS(dst *lwe.Sample, mu torus.Torus32, src *lwe.Sample) error {
	e.mu1[0] = mu
	return e.BootstrapOne(dst, e.mu1[:], src, false)
}

// BootstrapBatch is BootstrapMany with the constant test vectors mu[m],
// key-switched. Each member's output is bit-exact with Bootstrap on the
// same input.
func (e *Evaluator) BootstrapBatch(dst []*lwe.Sample, mu []torus.Torus32, src []*lwe.Sample) error {
	if len(mu) != len(src) {
		return fmt.Errorf("boot: batch length mismatch: mu=%d src=%d", len(mu), len(src))
	}
	e.mus = e.mus[:0]
	for m := range mu {
		e.mus = append(e.mus, mu[m:m+1])
	}
	return e.BootstrapMany(dst, e.mus, src, true)
}
