package noise

import (
	"math"
	"testing"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/trand"
)

func TestDefault128BudgetIsSound(t *testing.T) {
	b := Analyze(params.Default128())
	if b.BootstrapVariance <= b.FreshVariance/1e6 {
		t.Fatalf("bootstrap variance %g implausibly small", b.BootstrapVariance)
	}
	// The defining soundness property: the worst-case gate input noise
	// must sit several standard deviations inside the decryption margin.
	// (The worst case is XOR's coefficient-2 combination; NAND-class gates
	// get an extra factor of 2 in margin.)
	if b.FailureSigmas < 4 {
		t.Fatalf("only %.1f sigmas of margin; gates would fail in practice", b.FailureSigmas)
	}
	// The worst case is read off the classic plans: XOR's weights (2, 2).
	if b.GateInputVariance != 8*b.BootstrapVariance {
		t.Fatalf("gate input variance %g, want 8 × the bootstrap variance %g", b.GateInputVariance, b.BootstrapVariance)
	}
	t.Logf("default128: bootstrap stdev %.3g, margin %.1f sigmas",
		math.Sqrt(b.BootstrapVariance), b.FailureSigmas)
}

func TestTestParamsBudgetIsSound(t *testing.T) {
	b := Analyze(params.Test())
	if b.FailureSigmas < 8 {
		t.Fatalf("test parameters have only %.1f sigmas of margin", b.FailureSigmas)
	}
}

func TestFreshNoiseMatchesPrediction(t *testing.T) {
	p := params.Test()
	rng := trand.NewSeeded([]byte("noise-fresh"))
	sk, _, err := boot.GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := MeasureFreshEncryption(sk, 2000, []byte("fresh-meas"))
	predicted := p.LWEStdev * p.LWEStdev
	// Sample variance of 2000 draws should be within 20% of sigma^2.
	if m.Variance < predicted/1.5 || m.Variance > predicted*1.5 {
		t.Fatalf("fresh variance %.3g, predicted %.3g", m.Variance, predicted)
	}
	if math.Abs(m.Mean) > 5*math.Sqrt(predicted/2000) {
		t.Fatalf("fresh noise not centered: mean %.3g", m.Mean)
	}
}

func TestBootstrapNoiseWithinBudget(t *testing.T) {
	p := params.Test()
	rng := trand.NewSeeded([]byte("noise-boot"))
	sk, ck, err := boot.GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureBootstrapNoise(sk, ck, 60, []byte("boot-meas"))
	if err != nil {
		t.Fatal(err)
	}
	predicted := BootstrapVariance(p)
	// The closed form is an upper-bound style estimate (independence
	// assumptions, worst-case key weights): the measurement must not
	// exceed it by much, and should not be absurdly below it either.
	if m.Variance > predicted*4 {
		t.Fatalf("measured bootstrap variance %.3g exceeds prediction %.3g", m.Variance, predicted)
	}
	// Every sample must stay inside the decryption margin.
	if m.MaxAbs >= 1.0/16 {
		t.Fatalf("bootstrap noise %.3g reached the decryption margin", m.MaxAbs)
	}
	t.Logf("measured stdev %.3g vs predicted %.3g (max |err| %.3g)",
		math.Sqrt(m.Variance), math.Sqrt(predicted), m.MaxAbs)
}

func TestMeasurementAccumulator(t *testing.T) {
	var m Measurement
	for _, v := range []float64{0.5, -0.5, 0.5, -0.5} {
		m.accumulate(v)
	}
	m.finish(4)
	if m.Mean != 0 || m.Variance != 0.25 || m.MaxAbs != 0.5 || m.Samples != 4 {
		t.Fatalf("accumulator wrong: %+v", m)
	}
}
