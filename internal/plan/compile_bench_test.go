package plan_test

import (
	"testing"

	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/circuit"
	"pytfhe/internal/core"
	"pytfhe/internal/models"
	"pytfhe/internal/plan"
	"pytfhe/internal/synth"
	"pytfhe/internal/vipbench"
)

// BenchmarkCompileMNIST times the compile stages of a scaled MNIST_S (14×14
// image) separately: the ChiselTorch lowering (which runs its own
// synth.Optimize), one synth.Optimize of the unsynthesized lowering — the
// rounds the lowering's synthesis runs — and plan.Compile. core runs what
// the benchmark's mnist_compile child does after the lowering:
// core.Compile (whose synth.Optimize finds the frontend's netlist among its
// fixed points and runs no round), core.Load of the binary, and
// plan.Compile of the loaded netlist. load is core.Load of the frontend's
// binary alone; its B/op is the memory a program load costs (the netlist,
// the binary copy and ComputeStats). ns/gate divides by the gates the
// stage reads (the frontend's gates out for chiseltorch, load and core,
// the lowering's for synth).
func BenchmarkCompileMNIST(b *testing.B) {
	spec := models.MNISTS().Scaled(14)
	w, err := vipbench.CompileMNIST(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	frontend := w.Netlist
	lowered := lowerMNIST(b, spec)
	perGate := func(b *testing.B, gates int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(gates), "ns/gate")
	}
	b.Run("chiseltorch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vipbench.CompileMNIST(spec, nil); err != nil {
				b.Fatal(err)
			}
		}
		perGate(b, len(frontend.Gates))
	})
	b.Run("synth", func(b *testing.B) {
		b.ReportAllocs()
		var out *synth.Result
		for i := 0; i < b.N; i++ {
			if out, err = synth.Optimize(lowered); err != nil {
				b.Fatal(err)
			}
		}
		perGate(b, len(lowered.Gates))
		if out.Iterations == 0 || len(out.Netlist.Gates) != len(frontend.Gates) {
			b.Fatalf("synth ran %d rounds to %d gates; the frontend has %d", out.Iterations, len(out.Netlist.Gates), len(frontend.Gates))
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Compile(frontend); err != nil {
				b.Fatal(err)
			}
		}
		perGate(b, len(frontend.Gates))
	})
	b.Run("load", func(b *testing.B) {
		prog, err := core.Compile(frontend)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Load(prog.Binary); err != nil {
				b.Fatal(err)
			}
		}
		perGate(b, len(frontend.Gates))
	})
	b.Run("core", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog, err := core.Compile(frontend)
			if err != nil {
				b.Fatal(err)
			}
			loaded, err := core.Load(prog.Binary)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.Compile(loaded.Netlist); err != nil {
				b.Fatal(err)
			}
		}
		perGate(b, len(frontend.Gates))
	})
}

// lowerMNIST builds MNIST_S at the given image size the way
// chiseltorch.Model.Compile does, and returns its netlist before synthesis.
func lowerMNIST(b *testing.B, spec models.MNISTSpec) *circuit.Netlist {
	b.Helper()
	model := spec.ToChiselTorch(nil)
	g := chiseltorch.NewGraph(model.Name, chiseltorch.NewFixed(8, 8))
	y, err := model.Net.Forward(g, g.InputTensor("x", 1, spec.Image, spec.Image))
	if err != nil {
		b.Fatal(err)
	}
	g.Output("y", y)
	nl, err := g.M.Build()
	if err != nil {
		b.Fatal(err)
	}
	return nl
}
