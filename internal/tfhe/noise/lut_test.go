package noise

import (
	"math"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
)

// TestAnalyzeLUTNetlist checks LUT gates in the dataflow: they are
// counted, their pre-bootstrap variance is the plan's Σc² times the
// operand variance (the bias is noiseless), and the worst feasible table — PARITY3
// with Σc² = 9 — still clears the default margin under default128, which
// is what lets lut-cluster run without a weight-norm cap.
func TestAnalyzeLUTNetlist(t *testing.T) {
	b := circuit.NewBuilder("lut-noise", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	maj := b.LUT(0xE8, x, y, z)        // Σc² = 3, fresh operands
	par := b.LUT(0x96, maj, maj, z)    // simplifies: depends on builder folding
	deep := b.LUT(0x96, maj, par, maj) // PARITY3 over bootstrapped operands
	b.Output("o", b.LUT(0x7E, deep, x, y))
	nl := b.MustBuild()

	p := params.Default128()
	r, err := AnalyzeNetlist(nl, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.LUTs == 0 {
		t.Fatalf("no LUTs counted: %+v", r)
	}
	if r.LUTs > r.Bootstrapped {
		t.Fatalf("LUTs %d exceed bootstrapped %d", r.LUTs, r.Bootstrapped)
	}
	if !r.OK() {
		t.Fatalf("feasible LUT netlist over budget under %s: %v", p.Name, r.Err())
	}

	// The worst-case check directly: a PARITY3 whose operands all carry
	// bootstrap variance amplifies by exactly Σc² = 9.
	bud := Analyze(p)
	pl, ok := logic.PlanOf(3, 0x96)
	if !ok {
		t.Fatal("PARITY3 unexpectedly infeasible")
	}
	if pl.WeightNormSq() != 9 {
		t.Fatalf("PARITY3 weight norm = %d, want 9", pl.WeightNormSq())
	}
	pre := 9 * bud.BootstrapVariance
	sig := bud.DecryptionMargin / math.Sqrt(pre)
	if sig < DefaultMinSigmas {
		t.Fatalf("PARITY3 over bootstrapped operands has %.2f sigmas under %s, below %.1f — lut-cluster needs a weight cap",
			sig, p.Name, DefaultMinSigmas)
	}
}

// TestAnalyzeLUTDepth checks LUT gates advance the bootstrap depth like
// classic gates: a LUT over bootstrapped operands sits one refresh deeper.
func TestAnalyzeLUTDepth(t *testing.T) {
	b := circuit.NewBuilder("lut-depth", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	l1 := b.LUT(0xE8, x, y, z)
	l2 := b.LUT(0xE8, l1, y, z)
	b.Output("o", l2)
	nl := b.MustBuild()
	r, err := AnalyzeNetlist(nl, params.Default128(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.CriticalDepth != 2 {
		t.Fatalf("critical depth = %d, want 2", r.CriticalDepth)
	}
	if r.MaxNoise.Arity != 3 {
		t.Fatalf("max-noise gate arity = %d, want 3 (the depth-2 LUT)", r.MaxNoise.Arity)
	}
}
