// Package noise provides the noise-growth analysis of the TFHE pipeline:
// closed-form variance predictions for each homomorphic operation and
// empirical measurement helpers used by tests to validate that the
// implementation's actual noise stays within the predicted budget — the
// property that makes unbounded-depth gate evaluation sound.
//
// Conventions: variances are in torus units (a standard deviation of
// 2^-15 has variance 2^-30). The decryption of a gate ciphertext is
// correct while the phase error stays below 1/16 (the half-width of the
// ±1/8 message slots), i.e. roughly while stdev < 1/48 for a 3-sigma
// margin.
//
//pytfhe:cryptoroot
package noise

import (
	"math"

	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// Budget summarizes the noise budget of a parameter set.
type Budget struct {
	// FreshVariance is the variance of a fresh gate-key encryption.
	FreshVariance float64
	// BootstrapVariance is the predicted variance of a ciphertext right
	// after gate bootstrapping (blind rotation + key switch).
	BootstrapVariance float64
	// GateInputVariance is the worst-case variance entering a classic
	// gate's bootstrap: the largest Σc² of the classic plans (XOR's weights
	// of 2, so 8) times the refreshed variance.
	GateInputVariance float64
	// DecryptionMargin is the slot half-width (1/16 for the ±1/8
	// encoding).
	DecryptionMargin float64
	// FailureSigmas is the number of standard deviations between the
	// worst-case gate-input noise and the decryption margin.
	FailureSigmas float64
}

// Analyze computes the noise budget of a parameter set.
func Analyze(p *params.GateParams) Budget {
	var b Budget
	b.FreshVariance = p.LWEStdev * p.LWEStdev
	b.BootstrapVariance = BootstrapVariance(p)
	// The bias is noiseless; the weights amplify the operands' variance.
	norm := 0
	for k := logic.Kind(0); k < logic.NumKinds; k++ {
		if pl, ok := logic.PlanOf(0, logic.TTOf(k)); ok {
			norm = max(norm, pl.WeightNormSq())
		}
	}
	b.GateInputVariance = float64(norm) * b.BootstrapVariance
	b.DecryptionMargin = 1.0 / 16
	if b.GateInputVariance > 0 {
		b.FailureSigmas = b.DecryptionMargin / math.Sqrt(b.GateInputVariance)
	}
	return b
}

// BootstrapVariance predicts the output variance of one gate bootstrap
// under the standard TFHE analysis: the blind-rotation external products
// contribute n CMux noises, and the key switch adds its decomposition and
// rounding terms.
func BootstrapVariance(p *params.GateParams) float64 {
	n := float64(p.LWEDimension)
	N := float64(p.PolyDegree)
	k := float64(p.RingCount)
	l := float64(p.DecompLevels)
	bg := float64(int64(1) << p.DecompBaseLog)
	bkVar := p.TLWEStdev * p.TLWEStdev

	// Per-CMux: (k+1) * l * N * (Bg/2)^2 * Var(bk) from the decomposed
	// multiply, plus the gadget truncation term (1+kN) * eps^2 with
	// eps = 1/(2 Bg^l).
	eps := 1.0 / (2 * math.Pow(bg, l))
	cmux := (k+1)*l*N*(bg/2)*(bg/2)*bkVar + (1+k*N)*eps*eps
	blindRotate := n * cmux

	// Key switch: N*k digits, t levels each, with base 2^basebit; each
	// nonzero digit adds a fresh ks-sample noise, plus the rounding error
	// 2^-(2*(t*basebit)-2)/... (standard bound: NIn * 2^-2(prec+1) ).
	t := float64(p.KSLevels)
	ksVar := p.LWEStdev * p.LWEStdev
	prec := float64(p.KSLevels * p.KSBaseLog)
	keySwitch := N*k*t*ksVar + N*k*math.Pow(2, -2*prec)/12

	return blindRotate + keySwitch
}

// Measurement is an empirical noise observation.
type Measurement struct {
	Samples  int
	Mean     float64 // mean phase error (torus units)
	Variance float64
	MaxAbs   float64
}

// MeasureFreshEncryption empirically measures the noise of fresh gate
// encryptions under the secret key.
func MeasureFreshEncryption(sk *boot.SecretKey, samples int, seed []byte) Measurement {
	rng := trand.NewSeeded(seed)
	p := sk.Params
	var m Measurement
	ct := lwe.NewSample(p.LWEDimension)
	mu := torus.Torus32(1) << 29
	for i := 0; i < samples; i++ {
		lwe.Encrypt(ct, mu, p.LWEStdev, sk.LWE, rng)
		err := trand.Torus32ToDouble(lwe.Phase(ct, sk.LWE) - mu)
		m.accumulate(err)
	}
	m.finish(samples)
	return m
}

// MeasureBootstrapNoise empirically measures the phase error after gate
// bootstrapping: it evaluates NAND(true, false) repeatedly and compares
// the output phase against the ideal +1/8.
func MeasureBootstrapNoise(sk *boot.SecretKey, ck *boot.CloudKey, samples int, seed []byte) (Measurement, error) {
	rng := trand.NewSeeded(seed)
	p := sk.Params
	eng := gate.NewEngine(ck)
	a := lwe.NewSample(p.LWEDimension)
	b := lwe.NewSample(p.LWEDimension)
	out := lwe.NewSample(p.LWEDimension)
	mu := torus.Torus32(1) << 29
	var m Measurement
	for i := 0; i < samples; i++ {
		gate.Encrypt(a, true, sk, rng)
		gate.Encrypt(b, false, sk, rng)
		if err := eng.Binary(logic.NAND, out, a, b); err != nil {
			return m, err
		}
		// NAND(true,false) = true -> ideal phase +1/8.
		err := trand.Torus32ToDouble(lwe.Phase(out, sk.LWE) - mu)
		m.accumulate(err)
	}
	m.finish(samples)
	return m, nil
}

func (m *Measurement) accumulate(err float64) {
	m.Mean += err
	m.Variance += err * err
	if a := math.Abs(err); a > m.MaxAbs {
		m.MaxAbs = a
	}
}

func (m *Measurement) finish(samples int) {
	m.Samples = samples
	if samples == 0 {
		return
	}
	m.Mean /= float64(samples)
	m.Variance = m.Variance/float64(samples) - m.Mean*m.Mean
}
