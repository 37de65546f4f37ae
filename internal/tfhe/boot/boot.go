// Package boot implements TFHE gate bootstrapping: generation of the
// bootstrapping and key-switching keys (the "cloud key"), blind rotation of
// a test vector, sample extraction, and the programmable bootstrap used by
// every homomorphic gate.
//
// The package also exposes a Profile so callers can attribute time to blind
// rotation versus key switching — the breakdown the paper reports in Fig. 7.
//
//pytfhe:cryptoroot
package boot

import (
	"errors"
	"fmt"
	"time"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// SecretKey holds every secret component: the scalar LWE key gates operate
// under, the ring key, and the extracted key that bridges them.
type SecretKey struct {
	Params    *params.GateParams
	LWE       *lwe.Key  // n-dimensional gate key
	Ring      *tlwe.Key // ring key (degree N, k masks)
	Extracted *lwe.Key  // N*k-dimensional key extracted from Ring
}

// CloudKey is the public evaluation key material: the bootstrapping key
// (one TGSW encryption of each LWE key bit, held in the half-complex
// transform domain — its only stored form, in memory, in gob and in key
// files) and the key-switching key from the extracted key back to the gate
// key.
type CloudKey struct {
	Params *params.GateParams
	BK     []*tgsw.HalfSample
	KS     *lwe.SwitchKey
}

// BKHalf returns the bootstrapping key in the half-complex representation
// the blind-rotate kernel consumes. That is the form BK is stored in, so
// this is BK itself: no conversion, no second copy.
func (ck *CloudKey) BKHalf() []*tgsw.HalfSample { return ck.BK }

// ErrOldKeyFormat reports a cloud key in a retired format: a bootstrapping
// key that still holds the full-complex transform (N points per polynomial
// instead of N/2), or a key-switching key that still holds one separately
// allocated sample per row (it decodes with no flat rows). Such keys cannot
// be converted in place; regenerate them.
var ErrOldKeyFormat = errors.New("boot: cloud key uses a retired key format: regenerate keys")

// Validate checks that the key's shape matches its parameter set, so that a
// key from outside the process (an upload, a key file, a cluster handshake)
// can never index out of range inside a worker: Params are consistent, BK
// has one entry per LWE key bit with (k+1)·l rows of k+1 polynomials of
// N/2 points, and KS has the dimensions the bootstrap feeds it and exactly
// the flat length those dimensions imply.
func (ck *CloudKey) Validate() error {
	if ck == nil {
		return errors.New("boot: nil cloud key")
	}
	p := ck.Params
	if p == nil {
		return errors.New("boot: cloud key without parameters")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("boot: cloud key parameters: %w", err)
	}
	if len(ck.BK) != p.LWEDimension {
		return fmt.Errorf("boot: bootstrapping key has %d entries, want %d", len(ck.BK), p.LWEDimension)
	}
	k, l, m := p.RingCount, p.DecompLevels, p.PolyDegree/2
	for i, g := range ck.BK {
		if g == nil {
			return fmt.Errorf("boot: bootstrapping key entry %d is nil", i)
		}
		if g.K != k || g.Params.Levels != l || g.Params.BaseLog != p.DecompBaseLog {
			return fmt.Errorf("boot: bootstrapping key entry %d has geometry k=%d l=%d Bgbit=%d, want k=%d l=%d Bgbit=%d",
				i, g.K, g.Params.Levels, g.Params.BaseLog, k, l, p.DecompBaseLog)
		}
		if len(g.Rows) != (k+1)*l {
			return fmt.Errorf("boot: bootstrapping key entry %d has %d rows, want %d", i, len(g.Rows), (k+1)*l)
		}
		for u, row := range g.Rows {
			if len(row) != k+1 {
				return fmt.Errorf("boot: bootstrapping key entry %d row %d has %d polynomials, want %d", i, u, len(row), k+1)
			}
			for c, poly := range row {
				switch {
				case poly == nil:
					return fmt.Errorf("boot: bootstrapping key entry %d row %d polynomial %d is nil", i, u, c)
				case len(poly.Re) == 2*m && len(poly.Im) == 2*m:
					return ErrOldKeyFormat
				case len(poly.Re) != m || len(poly.Im) != m:
					return fmt.Errorf("boot: bootstrapping key entry %d row %d polynomial %d has %d/%d points, want %d",
						i, u, c, len(poly.Re), len(poly.Im), m)
				}
			}
		}
	}
	return ck.validateKS()
}

func (ck *CloudKey) validateKS() error {
	p, ks := ck.Params, ck.KS
	if ks == nil {
		return errors.New("boot: cloud key without key-switching key")
	}
	if ks.NIn != p.ExtractedLWEDimension() || ks.NOut != p.LWEDimension || ks.Levels != p.KSLevels || ks.BaseLog != p.KSBaseLog {
		return fmt.Errorf("boot: key-switching key is %d→%d with t=%d basebit=%d, want %d→%d with t=%d basebit=%d",
			ks.NIn, ks.NOut, ks.Levels, ks.BaseLog, p.ExtractedLWEDimension(), p.LWEDimension, p.KSLevels, p.KSBaseLog)
	}
	want := lwe.SwitchKeyWords(ks.NIn, ks.NOut, ks.Levels, ks.BaseLog)
	switch {
	case want < 0:
		return fmt.Errorf("boot: key-switching key shape t=%d basebit=%d has no flat layout", ks.Levels, ks.BaseLog)
	case len(ks.Flat) == 0 && want > 0:
		return ErrOldKeyFormat
	case len(ks.Flat) != want:
		return fmt.Errorf("boot: key-switching key has %d words, want %d", len(ks.Flat), want)
	}
	return nil
}

// GenerateKeys produces a fresh secret key and the matching cloud key.
func GenerateKeys(p *params.GateParams, rng *trand.Source) (*SecretKey, *CloudKey, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("boot: invalid parameters: %w", err)
	}
	if lwe.SwitchKeyWords(p.ExtractedLWEDimension(), p.LWEDimension, p.KSLevels, p.KSBaseLog) < 0 {
		return nil, nil, fmt.Errorf("boot: invalid parameters: key switch t=%d basebit=%d is too large to store", p.KSLevels, p.KSBaseLog)
	}
	gp := tgsw.Params{Levels: p.DecompLevels, BaseLog: p.DecompBaseLog}
	sk := &SecretKey{
		Params: p,
		LWE:    lwe.NewKey(p.LWEDimension, p.LWEStdev, rng),
		Ring:   tlwe.NewKey(p.PolyDegree, p.RingCount, p.TLWEStdev, rng),
	}
	sk.Extracted = sk.Ring.ExtractLWEKey()

	ck := &CloudKey{Params: p}
	proc := torus.NewProcessor(p.PolyDegree)
	ringKey := &tgsw.Key{TLWE: sk.Ring, Params: gp}
	ck.BK = make([]*tgsw.HalfSample, p.LWEDimension)
	raw := tgsw.NewSample(p.PolyDegree, p.RingCount, gp)
	for i := 0; i < p.LWEDimension; i++ {
		tgsw.Encrypt(raw, sk.LWE.Bits[i], p.TLWEStdev, ringKey, rng)
		ck.BK[i] = raw.ToHalf(proc)
	}
	ck.KS = lwe.NewSwitchKey(sk.Extracted, sk.LWE, p.KSLevels, p.KSBaseLog, p.LWEStdev, rng)
	return sk, ck, nil
}

// Profile accumulates wall-clock time per bootstrapping phase. Zero value is
// ready to use. It is not safe for concurrent use; each Evaluator owns one.
type Profile struct {
	BlindRotate time.Duration
	Extract     time.Duration
	KeySwitch   time.Duration
	Gates       int64

	// Batch amortization counters: how many batch entry-point dispatches
	// (BootstrapBatch and kin) ran and how many gates they covered.
	// BatchedGates/Batches is the average batch fill the kernel actually
	// saw; single-gate entry points count toward neither.
	Batches      int64
	BatchedGates int64
}

// Total returns the profiled time across all phases.
func (p *Profile) Total() time.Duration {
	return p.BlindRotate + p.Extract + p.KeySwitch
}

// AvgBatchFill returns the average number of gates per batched dispatch, or
// 0 when no batches ran.
func (p *Profile) AvgBatchFill() float64 {
	if p.Batches == 0 {
		return 0
	}
	return float64(p.BatchedGates) / float64(p.Batches)
}

// Add merges other into p.
func (p *Profile) Add(other *Profile) {
	p.BlindRotate += other.BlindRotate
	p.Extract += other.Extract
	p.KeySwitch += other.KeySwitch
	p.Gates += other.Gates
	p.Batches += other.Batches
	p.BatchedGates += other.BatchedGates
}
