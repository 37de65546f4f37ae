package synth

import (
	"fmt"
	"math/rand"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// OptimizeByCount is the oracle of Optimize's stop rule: the standard
// pipeline repeated until a round leaves the gate count where it was, for
// at most 8 rounds — the loop Optimize ran before it learned to stop at a
// round whose cse replay fired no rule.
func OptimizeByCount(nl *circuit.Netlist) (*Result, error) {
	res := &Result{Netlist: nl, GatesIn: len(nl.Gates)}
	for iter := 0; iter < 8; iter++ {
		before := len(res.Netlist.Gates)
		for _, p := range StandardPasses() {
			out, err := p.Run(res.Netlist)
			if err != nil {
				return nil, err
			}
			res.Netlist = out
		}
		res.Iterations++
		if len(res.Netlist.Gates) >= before {
			break
		}
	}
	res.GatesOut = len(res.Netlist.Gates)
	return res, nil
}

// CheckFixedPoint runs Optimize and OptimizeByCount on nl and fails unless
// their netlists are identical gate for gate. It returns how many rounds
// the stop rule saved.
func CheckFixedPoint(t *testing.T, name string, nl *circuit.Netlist) int {
	t.Helper()
	got, err := Optimize(nl)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := OptimizeByCount(nl)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, w := got.Netlist, want.Netlist
	if g.NumInputs != w.NumInputs || len(g.Gates) != len(w.Gates) || len(g.Outputs) != len(w.Outputs) {
		t.Fatalf("%s: Optimize gave %d inputs, %d gates, %d outputs after %d rounds; the count loop %d, %d, %d after %d",
			name, g.NumInputs, len(g.Gates), len(g.Outputs), got.Iterations, w.NumInputs, len(w.Gates), len(w.Outputs), want.Iterations)
	}
	for i := range g.Gates {
		if g.Gates[i] != w.Gates[i] {
			t.Fatalf("%s: gate %d is %+v, the count loop's %+v", name, i, g.Gates[i], w.Gates[i])
		}
	}
	for i := range g.Outputs {
		if g.Outputs[i] != w.Outputs[i] {
			t.Fatalf("%s: output %d is %d, the count loop's %d", name, i, g.Outputs[i], w.Outputs[i])
		}
	}
	if got.Iterations > want.Iterations {
		t.Fatalf("%s: Optimize ran %d rounds, the count loop %d", name, got.Iterations, want.Iterations)
	}
	return want.Iterations - got.Iterations
}

// lutRandomNetlist is randomNetlist with a third of its gates drawn as
// 3-input LUTs, emitted literally, so the LUT reduction rules have work.
func lutRandomNetlist(seed int64, nGates int) *circuit.Netlist {
	rng := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder("rand-lut", circuit.NoOptimizations())
	nodes := b.Inputs("x", 5)
	pick := func() circuit.NodeID { return nodes[rng.Intn(len(nodes))] }
	for i := 0; i < nGates; i++ {
		var id circuit.NodeID
		switch rng.Intn(3) {
		case 0:
			id = b.LUT(logic.TT(rng.Intn(256)), pick(), pick(), pick())
		case 1:
			id = b.Not(pick())
		default:
			id = b.Gate(logic.Kind(rng.Intn(logic.NumKinds)), pick(), pick())
		}
		if !id.IsConst() {
			nodes = append(nodes, id)
		}
	}
	b.OutputBus("y", nodes[len(nodes)-3:])
	return b.MustBuild()
}

// TestOptimizeStopsAtFixedPointRandom holds Optimize to the count loop on
// random netlists from the package's generators: literal netlists with
// duplicates, inverter chains and dead gates, LUT-bearing ones, and their
// lut-cluster rewrites.
func TestOptimizeStopsAtFixedPointRandom(t *testing.T) {
	saved := 0
	for seed := int64(1); seed <= 60; seed++ {
		nl := randomNetlist(seed, 20+int(seed)*5)
		saved += CheckFixedPoint(t, fmt.Sprintf("random/%d", seed), nl)
		saved += CheckFixedPoint(t, fmt.Sprintf("lut-random/%d", seed), lutRandomNetlist(seed, 60))
		clustered, err := LUTCluster(nl)
		if err != nil {
			t.Fatal(err)
		}
		saved += CheckFixedPoint(t, fmt.Sprintf("lut-cluster/%d", seed), clustered)
	}
	if saved == 0 {
		t.Fatal("the stop rule never saved a round; the comparison saw only the count rule")
	}
}
