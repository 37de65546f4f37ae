package plan_test

import (
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/core"
	"pytfhe/internal/models"
	"pytfhe/internal/plan"
	"pytfhe/internal/synth"
	"pytfhe/internal/vipbench"
)

// BenchmarkCompileMNIST times the compile stages of a scaled MNIST_S (14×14
// image) separately: the ChiselTorch lowering (which runs its own synth
// iterations), one synth.Optimize as core.Compile runs it, and
// plan.Compile. core runs what the benchmark's mnist_compile child does
// after the lowering: core.Compile, core.Load of the binary, and
// plan.Compile of the loaded netlist. ns/gate divides by the gates the
// stage reads (the frontend's gates out for chiseltorch and core).
func BenchmarkCompileMNIST(b *testing.B) {
	spec := models.MNISTS().Scaled(14)
	w, err := vipbench.CompileMNIST(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	frontend := w.Netlist
	res, err := synth.Optimize(frontend)
	if err != nil {
		b.Fatal(err)
	}
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
		var out *circuit.Netlist
		for i := 0; i < b.N; i++ {
			r, err := synth.Optimize(frontend)
			if err != nil {
				b.Fatal(err)
			}
			out = r.Netlist
		}
		perGate(b, len(frontend.Gates))
		if len(out.Gates) != len(res.Netlist.Gates) {
			b.Fatalf("synth produced %d gates, then %d", len(res.Netlist.Gates), len(out.Gates))
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Compile(res.Netlist); err != nil {
				b.Fatal(err)
			}
		}
		perGate(b, len(res.Netlist.Gates))
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
