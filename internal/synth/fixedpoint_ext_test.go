package synth_test

import (
	"testing"

	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/circuit"
	"pytfhe/internal/frameworks"
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
