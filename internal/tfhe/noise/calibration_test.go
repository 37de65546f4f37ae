package noise

import (
	"math"
	"testing"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// TestCalibrationStaticModelBoundsMeasuredNoise pins the static netlist
// analysis to reality: it encrypts inputs, homomorphically evaluates the
// bench netlist shape (the ripple-imbalanced NAND chains of
// bench_test.go), and checks that the phase error measured on every
// output ciphertext stays inside the statically predicted worst-case
// bound. If internal/params or the bootstrap pipeline changes in a way
// the closed-form model no longer covers, this is the test that drifts.
func TestCalibrationStaticModelBoundsMeasuredNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("homomorphic calibration run")
	}
	p := params.Test()
	rng := trand.NewSeeded([]byte("noise-calibration"))
	sk, ck, err := boot.GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	nl := nandChains([]int{30, 30, 30, 30, 30, 12, 6}) // bench netlist shape
	r, err := AnalyzeNetlist(nl, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("bench netlist over budget under test params: %v", r.Err())
	}

	eng := gate.NewEngine(ck)
	mu := torus.Torus32(1) << 29
	var m Measurement
	samples := 0
	for run := 0; run < 2; run++ {
		bits := make([]bool, nl.NumInputs)
		for i := range bits {
			bits[i] = (i+run)%2 == 0
		}
		want, err := nl.Evaluate(bits)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]*lwe.Sample, nl.NumNodes()+1)
		for i := 0; i < nl.NumInputs; i++ {
			values[i+1] = lwe.NewSample(p.LWEDimension)
			gate.Encrypt(values[i+1], bits[i], sk, rng)
		}
		for i, g := range nl.Gates {
			out := lwe.NewSample(p.LWEDimension)
			if err := eng.Binary(g.Kind(), out, values[g.A], values[g.B]); err != nil {
				t.Fatalf("gate %d: %v", i, err)
			}
			values[nl.GateID(i)] = out
		}
		for i, id := range nl.Outputs {
			if id.IsConst() {
				continue
			}
			ideal := mu
			if !want[i] {
				ideal = -mu
			}
			m.accumulate(trand.Torus32ToDouble(lwe.Phase(values[id], sk.LWE) - ideal))
			samples++
		}
	}
	m.finish(samples)

	// Every output here is a bootstrapped NAND, so the static model's
	// worst-case prediction for its variance is exactly the bootstrap
	// variance. The FFT-based external products add numerical noise the
	// closed form does not model, so the measured sample is held to the
	// same 4x implementation allowance TestBootstrapNoiseWithinBudget
	// pins; a parameter or pipeline change that drifts past it fails
	// here before it fails a decryption.
	const implAllowance = 4
	predicted := r.Budget.BootstrapVariance
	if m.Variance > implAllowance*predicted {
		t.Fatalf("measured output variance %.3g exceeds static worst-case prediction %.3g x%d (%d samples)",
			m.Variance, predicted, implAllowance, m.Samples)
	}
	if m.Variance < predicted/1e6 {
		t.Fatalf("measured variance %.3g implausibly far below prediction %.3g; measurement is broken",
			m.Variance, predicted)
	}
	// And no individual output may stray past the decryption margin the
	// sigma check reasons about.
	if m.MaxAbs >= 2*r.Budget.DecryptionMargin {
		t.Fatalf("phase error %.3g reached the output decryption margin", m.MaxAbs)
	}
	t.Logf("calibration: %d outputs, measured stdev %.3g vs predicted worst case %.3g (%.1fx headroom), max |err| %.3g",
		m.Samples, math.Sqrt(m.Variance), math.Sqrt(predicted), math.Sqrt(predicted/m.Variance), m.MaxAbs)
}
