package synth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// randomNetlist builds an unoptimized random DAG with deliberate
// redundancy: duplicated gates, inverter chains, and dead gates.
func randomNetlist(seed int64, nGates int) *circuit.Netlist {
	rng := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder("rand", circuit.NoOptimizations())
	nodes := []circuit.NodeID{b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d")}
	for i := 0; i < nGates; i++ {
		kind := logic.Kind(rng.Intn(logic.NumKinds))
		x := nodes[rng.Intn(len(nodes))]
		y := nodes[rng.Intn(len(nodes))]
		id := b.Gate(kind, x, y)
		nodes = append(nodes, id)
		if rng.Intn(4) == 0 { // duplicate on purpose
			nodes = append(nodes, b.Gate(kind, x, y))
		}
		if rng.Intn(4) == 0 { // inverter chain
			nodes = append(nodes, b.Not(b.Not(id)))
		}
	}
	b.Output("o0", nodes[len(nodes)-1])
	b.Output("o1", nodes[len(nodes)/2])
	return b.MustBuild()
}

func equivalent(t *testing.T, a, b *circuit.Netlist) {
	t.Helper()
	if a.NumInputs != b.NumInputs || len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("interface mismatch: %v vs %v", a, b)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 64; trial++ {
		in := make([]bool, a.NumInputs)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		oa, err := a.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := b.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("output %d differs on input %v", i, in)
			}
		}
	}
}

func TestEachPassPreservesSemantics(t *testing.T) {
	for _, p := range StandardPasses() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			f := func(seed int64) bool {
				nl := randomNetlist(seed, 30)
				out, err := p.Run(nl)
				if err != nil {
					return false
				}
				if err := out.Validate(); err != nil {
					return false
				}
				rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
				for trial := 0; trial < 16; trial++ {
					in := make([]bool, nl.NumInputs)
					for i := range in {
						in[i] = rng.Intn(2) == 1
					}
					a, _ := nl.Evaluate(in)
					b, _ := out.Evaluate(in)
					for i := range a {
						if a[i] != b[i] {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOptimizeShrinksRedundantNetlists(t *testing.T) {
	nl := randomNetlist(42, 60)
	res, err := Optimize(nl)
	if err != nil {
		t.Fatal(err)
	}
	if res.GatesOut >= res.GatesIn {
		t.Fatalf("optimizer did not shrink: %d -> %d", res.GatesIn, res.GatesOut)
	}
	equivalent(t, nl, res.Netlist)
}

func TestDeadGateElimination(t *testing.T) {
	b := circuit.NewBuilder("dead", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	live := b.And(x, y)
	b.Or(x, y)  // dead
	b.Xor(x, y) // dead
	b.Output("o", live)
	nl := b.MustBuild()
	out, err := DeadGateElimination(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Gates) != 1 {
		t.Fatalf("expected 1 live gate, got %d", len(out.Gates))
	}
	equivalent(t, nl, out)
}

func TestCSEMergesAcrossLayers(t *testing.T) {
	b := circuit.NewBuilder("cse2", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	g1 := b.And(x, y)
	g2 := b.And(x, y) // duplicate
	g3 := b.Or(g1, g2)
	b.Output("o", g3)
	nl := b.MustBuild()
	out, err := CSE(nl)
	if err != nil {
		t.Fatal(err)
	}
	// AND deduplicates and OR(g,g) collapses to g.
	if len(out.Gates) != 1 {
		t.Fatalf("expected 1 gate after CSE, got %d", len(out.Gates))
	}
	equivalent(t, nl, out)
}

func TestAbsorbInverters(t *testing.T) {
	b := circuit.NewBuilder("inv", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	nx := b.Not(x)
	g := b.And(nx, y)
	b.Output("o", g)
	nl := b.MustBuild()
	out, err := Optimize(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Netlist.Gates) != 1 {
		t.Fatalf("expected NOT to be absorbed, got %d gates", len(out.Netlist.Gates))
	}
	if out.Netlist.Gates[0].Kind() != logic.ANDNY {
		t.Fatalf("expected ANDNY, got %v", out.Netlist.Gates[0].Kind())
	}
	equivalent(t, nl, out.Netlist)
}

func TestOptimizeIsIdempotent(t *testing.T) {
	nl := randomNetlist(7, 50)
	res1, err := Optimize(nl)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Optimize(res1.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Netlist.Gates) != len(res1.Netlist.Gates) {
		t.Fatalf("second optimize changed gate count %d -> %d", len(res1.Netlist.Gates), len(res2.Netlist.Gates))
	}
}

func TestOptimizePreservesNamedInterface(t *testing.T) {
	b := circuit.NewBuilder("iface", circuit.NoOptimizations())
	x := b.Input("alpha")
	y := b.Input("beta")
	b.Output("gamma", b.And(x, y))
	nl := b.MustBuild()
	res, err := Optimize(nl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Netlist.InputNames[0] != "alpha" || res.Netlist.InputNames[1] != "beta" {
		t.Fatalf("input names lost: %v", res.Netlist.InputNames)
	}
	if res.Netlist.OutputNames[0] != "gamma" {
		t.Fatalf("output names lost: %v", res.Netlist.OutputNames)
	}
}
