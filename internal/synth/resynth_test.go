package synth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

func TestResynthesizeCollapsesXORExpansion(t *testing.T) {
	// The Transpiler-style AND/OR/NOT expansion of XOR:
	// OR(AND(a, NOT b), AND(NOT a, b)) — 6 gates — must collapse to 1.
	b := circuit.NewBuilder("xorexp", circuit.NoOptimizations())
	a := b.Input("a")
	bb := b.Input("b")
	na := b.Not(a)
	nb := b.Not(bb)
	left := b.And(a, nb)
	right := b.And(na, bb)
	b.Output("o", b.Or(left, right))
	nl := b.MustBuild()
	if len(nl.Gates) != 5 {
		t.Fatalf("setup: expansion has %d gates", len(nl.Gates))
	}
	out, err := Resynthesize(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Gates) != 1 {
		t.Fatalf("resynthesis left %d gates, want 1", len(out.Gates))
	}
	if out.Gates[0].Kind() != logic.XOR {
		t.Fatalf("recovered %v, want XOR", out.Gates[0].Kind())
	}
	equivalent(t, nl, out)
}

func TestResynthesizeCollapsesDeepTwoVariableTrees(t *testing.T) {
	// Any tree over just two variables computes a single 2-input function.
	b := circuit.NewBuilder("deep", circuit.NoOptimizations())
	a := b.Input("a")
	bb := b.Input("b")
	x := a
	for i := 0; i < 10; i++ {
		x = b.Gate(logic.NAND, x, bb)
		x = b.Gate(logic.OR, x, a)
	}
	b.Output("o", x)
	nl := b.MustBuild()
	out, err := Resynthesize(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Gates) > 1 {
		t.Fatalf("two-variable tree left %d gates", len(out.Gates))
	}
	equivalent(t, nl, out)
}

func TestResynthesizePreservesWideLogic(t *testing.T) {
	// A genuine 3-input function cannot collapse below 2 gates.
	b := circuit.NewBuilder("wide3", circuit.NoOptimizations())
	a := b.Input("a")
	bb := b.Input("b")
	c := b.Input("c")
	b.Output("o", b.Xor(b.Xor(a, bb), c))
	nl := b.MustBuild()
	out, err := Resynthesize(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Gates) != 2 {
		t.Fatalf("3-input parity has %d gates, want 2", len(out.Gates))
	}
	equivalent(t, nl, out)
}

// TestResynthesizeSemanticsRandom is the safety property: random netlists
// keep their function under resynthesis, never growing.
func TestResynthesizeSemanticsRandom(t *testing.T) {
	f := func(seed int64) bool {
		nl := randomNetlist(seed, 40)
		out, err := Resynthesize(nl)
		if err != nil {
			return false
		}
		if len(out.Gates) > len(nl.Gates) {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x77))
		for trial := 0; trial < 16; trial++ {
			in := make([]bool, nl.NumInputs)
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			x, _ := nl.Evaluate(in)
			y, _ := out.Evaluate(in)
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestResynthesizeShrinksTranspilerStyleAdder(t *testing.T) {
	// Build a ripple adder in the AND/OR/NOT alphabet (as the Transpiler
	// IR would) and check resynthesis recovers a meaningful fraction of
	// the expansion.
	b := circuit.NewBuilder("aon_adder", circuit.NoOptimizations())
	xa := b.Inputs("a", 8)
	xb := b.Inputs("b", 8)
	not := func(x circuit.NodeID) circuit.NodeID { return b.Not(x) }
	xor := func(x, y circuit.NodeID) circuit.NodeID {
		return b.Or(b.And(x, not(y)), b.And(not(x), y))
	}
	carry := b.And(xa[0], xb[0]) // placeholder to have a carry start
	carry = b.And(carry, not(carry))
	for i := 0; i < 8; i++ {
		axb := xor(xa[i], xb[i])
		b.Output("s", xor(axb, carry))
		carry = b.Or(b.And(xa[i], xb[i]), b.And(axb, carry))
	}
	nl := b.MustBuild()
	out, err := Resynthesize(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Gates) >= len(nl.Gates)*3/4 {
		t.Fatalf("resynthesis only got %d -> %d gates", len(nl.Gates), len(out.Gates))
	}
	equivalent(t, nl, out)
	t.Logf("AND/OR/NOT adder: %d -> %d gates", len(nl.Gates), len(out.Gates))
}
