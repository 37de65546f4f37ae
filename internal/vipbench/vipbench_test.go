package vipbench

import (
	"math/rand"
	"testing"

	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/models"
)

// TestAllBenchmarksMatchReference builds every VIP-Bench kernel and
// compares the synthesized circuit against its plaintext reference on
// random inputs.
func TestAllBenchmarksMatchReference(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			nl, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if err := nl.Validate(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(b.Name)) * 97))
			for trial := 0; trial < 12; trial++ {
				vals := make([]uint64, len(b.InputBits))
				for i, w := range b.InputBits {
					vals[i] = rng.Uint64() & (1<<uint(w) - 1)
				}
				bits, err := b.EncodeInputs(vals)
				if err != nil {
					t.Fatal(err)
				}
				outBits, err := nl.Evaluate(bits)
				if err != nil {
					t.Fatal(err)
				}
				got, err := b.DecodeOutputs(outBits)
				if err != nil {
					t.Fatal(err)
				}
				want := b.Ref(vals)
				if len(got) != len(want) {
					t.Fatalf("output count %d vs %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d output %d: circuit %d, reference %d (inputs %v)",
							trial, i, got[i], want[i], vals)
					}
				}
			}
		})
	}
}

func TestSuiteHas18Benchmarks(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("VIP-Bench suite has %d benchmarks, want 18", len(all))
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Lower == nil || b.Ref == nil {
			t.Fatalf("%s missing Lower or Ref", b.Name)
		}
	}
	// The paper's named examples must be present.
	for _, name := range []string{"dot-product", "eulers-approx", "roberts-cross", "hamming-distance", "nr-solver", "parrondo"} {
		if !seen[name] {
			t.Fatalf("missing paper-referenced benchmark %q", name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("kadane"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestSerialBenchmarksAreDeep(t *testing.T) {
	// The benchmarks the paper singles out as serial must have critical
	// paths that are a large fraction of their gate count per output.
	for _, b := range All() {
		if !b.Serial {
			continue
		}
		nl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := nl.ComputeStats()
		if s.Depth*3 < s.Levels {
			t.Fatalf("%s marked serial but depth %d vs levels %d", b.Name, s.Depth, s.Levels)
		}
		// Parallelism = gates/depth must be small for serial workloads.
		// "Serial" means far from the 72-way parallelism of the 4-node
		// platform; arithmetic inside each step still has some width.
		if par := float64(s.Bootstrapped) / float64(s.Depth); par > 32 {
			t.Errorf("%s marked serial but has average parallelism %.1f", b.Name, par)
		}
	}
}

func TestParallelBenchmarksAreWide(t *testing.T) {
	for _, name := range []string{"roberts-cross", "bubble-sort", "distinctness"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := nl.ComputeStats()
		if par := float64(s.Bootstrapped) / float64(s.Depth); par < 4 {
			t.Errorf("%s should be parallel, got average parallelism %.1f", name, par)
		}
	}
}

func TestCompileMNISTScaled(t *testing.T) {
	spec := models.MNISTS().Scaled(8)
	w, err := CompileMNIST(spec, chiseltorch.NewFixed(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Netlist.Gates) == 0 {
		t.Fatal("MNIST netlist is empty")
	}
	// Run one plaintext inference end to end.
	in := make([]float64, spec.Image*spec.Image)
	for i := range in {
		in[i] = float64(i%7)/7 - 0.5
	}
	out, err := w.Compiled.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != spec.Classes {
		t.Fatalf("MNIST produced %d outputs", len(out))
	}
}

func TestCompileAttentionScaled(t *testing.T) {
	spec := models.AttentionS().Scaled(2, 4)
	w, err := CompileAttention(spec, chiseltorch.NewFixed(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Netlist.Gates) == 0 {
		t.Fatal("attention netlist is empty")
	}
}

func TestMNISTSizesOrdered(t *testing.T) {
	// MNIST_S < MNIST_M < MNIST_L in gate count (at a reduced image size
	// to keep the test fast).
	var counts []int
	for _, spec := range []models.MNISTSpec{models.MNISTS().Scaled(8), models.MNISTM().Scaled(8), models.MNISTL().Scaled(8)} {
		w, err := CompileMNIST(spec, chiseltorch.NewFixed(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(w.Netlist.Gates))
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Fatalf("MNIST sizes not ordered: %v", counts)
	}
}

func TestFlatSizeMatchesPaper(t *testing.T) {
	// Fig. 4 declares Linear(576, 10) for the VIP-Bench MNIST network.
	if got := models.MNISTS().FlatSize(); got != 576 {
		t.Fatalf("MNIST_S flat size = %d, want 576", got)
	}
}
