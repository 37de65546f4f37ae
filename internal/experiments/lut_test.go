package experiments

import (
	"testing"

	"pytfhe/internal/synth"
)

// TestLUTBenchNetlistClusters pins the bench workload's shape: 11
// bootstrapped gates per block classic, 4 LUT bootstraps per block after
// lut-cluster — the ≥2× acceptance floor with room to spare — and the two
// forms evaluate identically on cleartext bits.
func TestLUTBenchNetlistClusters(t *testing.T) {
	src := LUTBenchNetlist()
	off, err := synth.Optimize(src)
	if err != nil {
		t.Fatal(err)
	}
	on, err := synth.OptimizeLUT(src)
	if err != nil {
		t.Fatal(err)
	}
	offBoots := off.Netlist.ComputeStats().Bootstrapped
	onStats := on.Netlist.ComputeStats()
	if onStats.LUTs == 0 {
		t.Fatalf("no LUTs after clustering: %+v", onStats)
	}
	if ratio := float64(offBoots) / float64(onStats.Bootstrapped); ratio < 2 {
		t.Fatalf("bootstrap reduction %.2fx below the 2x acceptance floor (%d -> %d)",
			ratio, offBoots, onStats.Bootstrapped)
	}
	for _, seed := range []uint64{0, 0x5a5a5a5a5a5a, ^uint64(0)} {
		bits := make([]bool, src.NumInputs)
		for i := range bits {
			bits[i] = seed>>(uint(i)%64)&1 == 1
		}
		want, err := off.Netlist.Evaluate(bits)
		if err != nil {
			t.Fatal(err)
		}
		got, err := on.Netlist.Evaluate(bits)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %#x output %d: clustered %v, classic %v", seed, i, got[i], want[i])
			}
		}
	}
}
