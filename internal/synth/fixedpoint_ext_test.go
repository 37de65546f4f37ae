package synth_test

import (
	"slices"
	"testing"

	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/circuit"
	"pytfhe/internal/frameworks"
	"pytfhe/internal/logic"
	"pytfhe/internal/models"
	"pytfhe/internal/synth"
	"pytfhe/internal/vipbench"
)

// lowerMNIST builds MNIST_S at the given image size the way
// chiseltorch.Model.Compile does, and returns its netlist before synthesis.
func lowerMNIST(t *testing.T, spec models.MNISTSpec) *circuit.Netlist {
	t.Helper()
	model := spec.ToChiselTorch(nil)
	g := chiseltorch.NewGraph(model.Name, chiseltorch.NewFixed(8, 8))
	y, err := model.Net.Forward(g, g.InputTensor("x", 1, spec.Image, spec.Image))
	if err != nil {
		t.Fatal(err)
	}
	g.Output("y", y)
	nl, err := g.M.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestOptimizeStopsAtFixedPoint holds Optimize to the count loop on the
// compile path's real inputs: every VIP-Bench kernel as the hdl library
// lowers it, MNIST_S@10 as ChiselTorch lowers it and after OptimizeLUT, and
// the Transpiler, Cingulata and E3 baselines, whose builders run without
// CSE and constant folding, so rules still fire in their cse replays.
func TestOptimizeStopsAtFixedPoint(t *testing.T) {
	saved := 0
	for _, b := range vipbench.All() {
		nl, err := b.Lower().Build()
		if err != nil {
			t.Fatal(err)
		}
		saved += synth.CheckFixedPoint(t, b.Name, nl)
	}
	spec := models.MNISTS().Scaled(10)
	mnist := lowerMNIST(t, spec)
	saved += synth.CheckFixedPoint(t, "chiseltorch-mnist_s@10", mnist)
	lut, err := synth.OptimizeLUT(mnist)
	if err != nil {
		t.Fatal(err)
	}
	saved += synth.CheckFixedPoint(t, "chiseltorch-mnist_s@10-lut", lut.Netlist)
	for name, c := range map[string]*frameworks.Compiler{
		"transpiler": frameworks.Transpiler(), "cingulata": frameworks.Cingulata(), "e3": frameworks.E3(),
	} {
		nl, err := c.CompileMNIST(spec)
		if err != nil {
			t.Fatal(err)
		}
		saved += synth.CheckFixedPoint(t, name+"-mnist_s@10", nl)
	}
	if saved == 0 {
		t.Fatal("the stop rule never saved a round; the comparison saw only the count rule")
	}
}

// TestOptimizeRecognisesFrontendOutput optimizes what the ChiselTorch and
// VIP-Bench frontends return, as core.Compile does: Optimize finds each in
// the fixed-point set, runs no round, and returns the count loop's netlist.
// A one-gate change — a flipped kind, an appended dead gate — misses, and
// is synthesized to the count loop's result.
func TestOptimizeRecognisesFrontendOutput(t *testing.T) {
	synth.FreshFixedPoints(t)
	spec := models.MNISTS().Scaled(10)
	model := spec.ToChiselTorch(nil)
	mnist, err := model.Compile(1, spec.Image, spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	hamming, err := vipbench.HammingDistance().Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, nl := range map[string]*circuit.Netlist{"chiseltorch-mnist_s@10": mnist.Netlist, "hamming-distance": hamming} {
		res, err := synth.Optimize(nl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 0 || res.Netlist != nl {
			t.Fatalf("%s: Optimize ran %d rounds on the frontend's fixed point", name, res.Iterations)
		}
		synth.CheckFixedPoint(t, name, nl)

		flip := slices.IndexFunc(nl.Gates, func(g circuit.Gate) bool { return g.Kind() == logic.AND })
		if flip < 0 {
			t.Fatalf("%s: no AND gate to flip", name)
		}
		mutants := map[string]func(*circuit.Netlist){
			"flipped-kind": func(m *circuit.Netlist) { m.Gates[flip].TT = logic.TTOf(logic.OR) },
			"dead-gate": func(m *circuit.Netlist) {
				m.Gates = append(m.Gates, circuit.Gate{TT: logic.TTOf(logic.AND), A: 1, B: 2})
			},
		}
		for mname, edit := range mutants {
			m := *nl
			m.Gates = slices.Clone(nl.Gates)
			edit(&m)
			res, err := synth.Optimize(&m)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations == 0 {
				t.Fatalf("%s/%s: Optimize ran no round", name, mname)
			}
			synth.CheckFixedPoint(t, name+"/"+mname, &m)
		}
	}
}

// TestOptimizeSynthesizesUnrecorded checks the two netlists of the compile
// path no Optimize call returned: the OptimizeLUT form of MNIST_S@10 and a
// frameworks baseline are not in the set, so Optimize synthesizes them
// (TestOptimizeStopsAtFixedPoint holds both results to the count loop).
func TestOptimizeSynthesizesUnrecorded(t *testing.T) {
	synth.FreshFixedPoints(t)
	spec := models.MNISTS().Scaled(10)
	lut, err := synth.OptimizeLUT(lowerMNIST(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := frameworks.Transpiler().CompileMNIST(spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, nl := range map[string]*circuit.Netlist{"chiseltorch-mnist_s@10-lut": lut.Netlist, "transpiler-mnist_s@10": baseline} {
		if synth.Recorded(nl) {
			t.Fatalf("%s is recorded before any Optimize call", name)
		}
		res, err := synth.Optimize(nl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations == 0 {
			t.Fatalf("%s: Optimize ran no round", name)
		}
	}
}
