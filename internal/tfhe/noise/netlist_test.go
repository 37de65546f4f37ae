package noise

import (
	"math"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
)

// nandChains builds the bench-shaped netlist: serial NAND chains of the
// given depths, each chained against a shared final input.
func nandChains(depths []int) *circuit.Netlist {
	b := circuit.NewBuilder("nand-chains", circuit.NoOptimizations())
	ins := b.Inputs("x", len(depths)+1)
	for c, depth := range depths {
		cur := ins[c]
		for d := 0; d < depth; d++ {
			cur = b.Gate(logic.NAND, cur, ins[len(depths)])
		}
		b.Output("o", cur)
	}
	return b.MustBuild()
}

// xorTree builds a small balanced XOR tree: XOR is the worst gate plan
// (coefficient-2 combination), so this exercises the tightest margin.
func xorTree(leaves int) *circuit.Netlist {
	b := circuit.NewBuilder("xor-tree", circuit.NoOptimizations())
	ids := b.Inputs("x", leaves)
	for len(ids) > 1 {
		var next []circuit.NodeID
		for i := 0; i+1 < len(ids); i += 2 {
			next = append(next, b.Xor(ids[i], ids[i+1]))
		}
		if len(ids)%2 == 1 {
			next = append(next, ids[len(ids)-1])
		}
		ids = next
	}
	b.Output("parity", ids[0])
	return b.MustBuild()
}

func TestAnalyzeNetlistBuiltinParamsAreClean(t *testing.T) {
	nl := nandChains([]int{30, 30, 30, 30, 30, 12, 6})
	xt := xorTree(16)
	for _, p := range []*params.GateParams{params.Default128(), params.Test()} {
		for _, n := range []*circuit.Netlist{nl, xt} {
			r, err := AnalyzeNetlist(n, p, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", n.Name, p.Name, err)
			}
			if !r.OK() || r.Err() != nil {
				t.Fatalf("%s/%s: over budget: %v", n.Name, p.Name, r.Err())
			}
			if r.HeadroomBits <= 0 {
				t.Fatalf("%s/%s: headroom %.2f bits, want > 0", n.Name, p.Name, r.HeadroomBits)
			}
			if r.MaxNoise.Sigmas < DefaultMinSigmas {
				t.Fatalf("%s/%s: worst gate at %.2f sigmas", n.Name, p.Name, r.MaxNoise.Sigmas)
			}
			t.Logf("%s/%s: %s", n.Name, p.Name, r)
		}
	}
}

func TestAnalyzeNetlistCountsAndDepth(t *testing.T) {
	nl := nandChains([]int{3, 1})
	r, err := AnalyzeNetlist(nl, params.Test(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bootstrapped != 4 || r.Gates != 4 {
		t.Fatalf("counted %d/%d bootstrapped/gates, want 4/4", r.Bootstrapped, r.Gates)
	}
	// The deepest chain has three chained NANDs; the worst gate is any
	// gate whose operand was already bootstrapped (depth 2 and beyond all
	// see the same 2x bootstrap variance).
	if r.CriticalDepth < 2 || r.MaxNoise.Depth != r.CriticalDepth {
		t.Fatalf("critical depth %d (max-noise depth %d), want >= 2", r.CriticalDepth, r.MaxNoise.Depth)
	}
	if r.WorstOutput < 0 {
		t.Fatal("no output was noise-checked")
	}
}

func TestAnalyzeNetlistFreeGatesDoNotAmplify(t *testing.T) {
	b := circuit.NewBuilder("free-chain", circuit.NoOptimizations())
	in := b.Input("x")
	cur := in
	for i := 0; i < 50; i++ {
		cur = b.Gate(logic.NOT, cur, cur)
	}
	b.Output("y", cur)
	nl := b.MustBuild()
	r, err := AnalyzeNetlist(nl, params.Test(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bootstrapped != 0 {
		t.Fatalf("NOT chain counted %d bootstraps", r.Bootstrapped)
	}
	// The output carries exactly the fresh input variance: 50 NOTs add
	// nothing, so its sigma margin is margin/freshStdev.
	fresh := params.Test().LWEStdev
	want := (2.0 / 16) / fresh
	if math.Abs(r.WorstOutputSigmas-want) > want*1e-9 {
		t.Fatalf("output sigmas %.6g, want %.6g (fresh variance passthrough)", r.WorstOutputSigmas, want)
	}
	if !r.OK() {
		t.Fatalf("free-gate chain over budget: %v", r.Err())
	}
}

func TestAnalyzeNetlistConstOnly(t *testing.T) {
	b := circuit.NewBuilder("consts", circuit.NoOptimizations())
	b.Output("t", b.Const(true))
	b.Output("f", b.Const(false))
	nl := b.MustBuild()
	r, err := AnalyzeNetlist(nl, params.Test(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || r.WorstOutput != -1 || !math.IsInf(r.HeadroomBits, 1) {
		t.Fatalf("const-only netlist: ok=%v worst=%d headroom=%v", r.OK(), r.WorstOutput, r.HeadroomBits)
	}
}

// degradedParams returns a parameter set whose key-switch key is far too
// noisy: the bootstrap no longer resets noise below the decryption margin,
// so any gate reading a bootstrapped operand is over budget. This is the
// seeded defect the noise pass must catch (parameter regressions present
// exactly this way).
func degradedParams() *params.GateParams {
	p := params.Test()
	p.Name = "degraded"
	p.LWEStdev = math.Pow(2, -8)
	return p
}

func TestAnalyzeNetlistRejectsOverBudget(t *testing.T) {
	nl := nandChains([]int{4})
	p := degradedParams()
	r, err := AnalyzeNetlist(nl, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || r.Err() == nil {
		t.Fatalf("degraded parameters passed the check: %s", r)
	}
	if len(r.OverBudget) == 0 {
		t.Fatal("no over-budget gates reported")
	}
	// Depth-1 gates read only fresh encryptions and stay fine even here;
	// the failures start where a bootstrapped operand enters.
	for _, g := range r.OverBudget {
		if g.Depth < 2 {
			t.Fatalf("gate %d at depth %d flagged; only bootstrapped-operand gates should fail", g.Gate, g.Depth)
		}
	}
	if len(r.OverBudgetOutputs) == 0 {
		t.Fatal("over-noisy outputs not reported")
	}
	if r.HeadroomBits >= 0 {
		t.Fatalf("over-budget report claims %.2f bits of headroom", r.HeadroomBits)
	}
	if r.CircuitFailureProb < 0.5 {
		t.Fatalf("union failure bound %.3g implausibly low for degraded params", r.CircuitFailureProb)
	}
}

func TestAnalyzeNetlistErrors(t *testing.T) {
	// Malformed netlist: gate operand references a later node.
	bad := &circuit.Netlist{
		Name:      "bad",
		NumInputs: 1,
		Gates:     []circuit.Gate{{TT: logic.TTOf(logic.AND), A: 5, B: 1}},
		Outputs:   []circuit.NodeID{2},
	}
	if _, err := AnalyzeNetlist(bad, params.Test(), 0); err == nil {
		t.Fatal("invalid netlist accepted")
	}
	// Unknown gate kind.
	ugly := &circuit.Netlist{
		Name:      "ugly",
		NumInputs: 2,
		Gates:     []circuit.Gate{{TT: logic.TT(99), A: 1, B: 2}},
		Outputs:   []circuit.NodeID{3},
	}
	if _, err := AnalyzeNetlist(ugly, params.Test(), 0); err == nil {
		t.Fatal("unknown gate kind accepted")
	}
}

func TestCheckNetlistStrictHook(t *testing.T) {
	nl := nandChains([]int{4})
	if err := CheckNetlist(nl, params.Test()); err != nil {
		t.Fatalf("clean netlist rejected: %v", err)
	}
	if err := CheckNetlist(nl, degradedParams()); err == nil {
		t.Fatal("over-budget netlist accepted by strict hook")
	}
}
