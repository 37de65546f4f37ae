package main

import (
	"testing"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/experiments"
	"pytfhe/internal/synth"
	"pytfhe/internal/tfhe/lwe"
)

// TestLUTAgreement is the `-lut` half of the acceptance matrix: for the
// bench netlist and the examples/lut demo circuit, the LUT-clustered form
// must decrypt to what the plaintext interpreter computes for the LUT-off
// netlist on every executor — planned replay and the cluster — while
// executing strictly fewer bootstraps than it has logical
// gates (the whole point of clustering).
func TestLUTAgreement(t *testing.T) {
	sk, ck := agreeKeys(t)
	coord := startCluster(t, ck, 2, 2)

	targets := []checkTarget{
		{"bench/lut-cones", experiments.LUTBenchNetlist()},
		{"examples/lut", lutDemoNetlist()},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			res, err := synth.OptimizeLUT(tg.nl)
			if err != nil {
				t.Fatal(err)
			}
			clustered := res.Netlist
			cs := clustered.ComputeStats()
			if cs.LUTs == 0 {
				t.Fatalf("lut-cluster produced no LUTs on %s: %+v", tg.name, cs)
			}
			os := tg.nl.ComputeStats()
			if cs.Bootstrapped >= os.Bootstrapped {
				t.Fatalf("clustering did not reduce bootstraps: %d -> %d", os.Bootstrapped, cs.Bootstrapped)
			}

			// LUT-off reference: the original netlist in the clear.
			bits := patternBits(tg.nl.NumInputs)
			enc := backend.EncryptInputs(sk, bits)
			want, err := tg.nl.Evaluate(bits)
			if err != nil {
				t.Fatal(err)
			}
			planned := backend.NewPlanned(ck, 2, 1)
			defer planned.Close()

			runners := []struct {
				name string
				run  func(*circuit.Netlist, []*lwe.Sample) ([]*lwe.Sample, error)
			}{
				{"planned(2)", planned.Run},
				{"cluster(2)", coord.Run},
			}
			for _, r := range runners {
				outs, err := r.run(clustered, enc)
				if err != nil {
					t.Fatalf("%s over clustered netlist: %v", r.name, err)
				}
				got := backend.DecryptOutputs(sk, outs)
				if len(got) != len(want) {
					t.Fatalf("%s: %d outputs, want %d", r.name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: output %d = %v with LUTs, lut-off reference says %v", r.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}
