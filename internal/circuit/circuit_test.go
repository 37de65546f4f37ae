package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pytfhe/internal/logic"
)

// buildHalfAdder returns the paper's Fig. 6 half adder.
func buildHalfAdder(t *testing.T, opts BuilderOptions) *Netlist {
	t.Helper()
	b := NewBuilder("half_adder", opts)
	a := b.Input("A")
	bb := b.Input("B")
	b.Output("Sum", b.Xor(a, bb))
	b.Output("Carry", b.And(a, bb))
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestHalfAdder(t *testing.T) {
	nl := buildHalfAdder(t, AllOptimizations())
	if len(nl.Gates) != 2 {
		t.Fatalf("half adder has %d gates, want 2", len(nl.Gates))
	}
	for _, tc := range []struct{ a, b, sum, carry bool }{
		{false, false, false, false},
		{false, true, true, false},
		{true, false, true, false},
		{true, true, false, true},
	} {
		out, err := nl.Evaluate([]bool{tc.a, tc.b})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != tc.sum || out[1] != tc.carry {
			t.Errorf("HA(%v,%v) = %v,%v want %v,%v", tc.a, tc.b, out[0], out[1], tc.sum, tc.carry)
		}
	}
}

func TestConstFold(t *testing.T) {
	b := NewBuilder("fold", AllOptimizations())
	x := b.Input("x")
	if got := b.And(x, b.Const(false)); got != ConstFalse {
		t.Errorf("x AND false = %d, want ConstFalse", got)
	}
	if got := b.And(x, b.Const(true)); got != x {
		t.Errorf("x AND true = %d, want x", got)
	}
	if got := b.Or(x, b.Const(true)); got != ConstTrue {
		t.Errorf("x OR true = %d, want ConstTrue", got)
	}
	if got := b.Xor(b.Const(true), b.Const(true)); got != ConstFalse {
		t.Errorf("true XOR true = %d, want ConstFalse", got)
	}
	if got := b.Gate(logic.NAND, x, b.Const(true)); got == x || got.IsConst() {
		// NAND(x, true) = NOT x: must be a real NOT gate.
		gi := b.gates[int(got)-b.numInputs-1]
		if gi.Kind() != logic.NOT || gi.A != x {
			t.Errorf("NAND(x,true) lowered to %v", gi)
		}
	}
	if b.NumGates() != 1 {
		t.Errorf("expected exactly one gate (the NOT), got %d", b.NumGates())
	}
}

func TestSameInputSimplification(t *testing.T) {
	b := NewBuilder("same", AllOptimizations())
	x := b.Input("x")
	if got := b.And(x, x); got != x {
		t.Errorf("x AND x should be x")
	}
	if got := b.Xor(x, x); got != ConstFalse {
		t.Errorf("x XOR x should be false")
	}
	if got := b.Xnor(x, x); got != ConstTrue {
		t.Errorf("x XNOR x should be true")
	}
	n := b.Nand(x, x)
	if n == x || n.IsConst() {
		t.Errorf("x NAND x should be a NOT gate")
	}
}

func TestCSEDeduplicates(t *testing.T) {
	b := NewBuilder("cse", AllOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	g1 := b.And(x, y)
	g2 := b.And(y, x) // commuted duplicate
	if g1 != g2 {
		t.Errorf("AND(x,y) and AND(y,x) should hash-cons to the same gate")
	}
	g3 := b.Gate(logic.ANDYN, x, y)
	g4 := b.Gate(logic.ANDNY, y, x) // swapped asymmetric duplicate
	if g3 != g4 {
		t.Errorf("ANDYN(x,y) and ANDNY(y,x) should hash-cons together")
	}
	if b.NumGates() != 2 {
		t.Errorf("expected 2 unique gates, got %d", b.NumGates())
	}
}

func TestNoOptimizationsEmitsEverything(t *testing.T) {
	b := NewBuilder("noopt", NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	g1 := b.And(x, y)
	g2 := b.And(x, y)
	if g1 == g2 {
		t.Errorf("without CSE duplicates must be distinct gates")
	}
	if b.NumGates() != 2 {
		t.Errorf("expected 2 gates, got %d", b.NumGates())
	}
}

func TestPushNotAbsorbsInverters(t *testing.T) {
	b := NewBuilder("pushnot", AllOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	nx := b.Not(x)
	g := b.And(nx, y) // should become ANDNY(x, y)
	gi := b.gates[int(g)-b.numInputs-1]
	if gi.Kind().NeedsBootstrap() != true {
		t.Fatalf("expected a bootstrapped gate")
	}
	// The consumer must read x directly, not the NOT gate.
	if gi.A != x && gi.B != x {
		t.Errorf("NOT was not absorbed: gate reads %d,%d", gi.A, gi.B)
	}
	// Double negation cancels entirely.
	if back := b.Not(b.Not(y)); back != y {
		t.Errorf("double negation should return the original node")
	}
}

func TestValidateCatchesOrderViolation(t *testing.T) {
	nl := &Netlist{
		NumInputs: 1,
		Gates:     []Gate{{TT: logic.TTOf(logic.AND), A: 3, B: 1}}, // node 3 doesn't exist yet
		Outputs:   []NodeID{2},
	}
	if err := nl.Validate(); err == nil {
		t.Fatal("expected topological order violation")
	}
}

func TestValidateCatchesBadOutput(t *testing.T) {
	nl := &Netlist{NumInputs: 1, Outputs: []NodeID{5}}
	if err := nl.Validate(); err == nil {
		t.Fatal("expected invalid output error")
	}
}

func TestLevelsAndDepth(t *testing.T) {
	b := NewBuilder("levels", NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	g1 := b.And(x, y)   // level 1
	g2 := b.Or(g1, z)   // level 2
	g3 := b.Xor(x, z)   // level 1
	g4 := b.And(g2, g3) // level 3
	b.Output("o", g4)
	nl := b.MustBuild()
	levels := nl.Levels()
	if len(levels) != 3 {
		t.Fatalf("got %d levels, want 3", len(levels))
	}
	if len(levels[0]) != 2 || len(levels[1]) != 1 || len(levels[2]) != 1 {
		t.Fatalf("level sizes %d/%d/%d, want 2/1/1", len(levels[0]), len(levels[1]), len(levels[2]))
	}
	if d := nl.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
	_ = g1
}

func TestDepthIgnoresFreeGates(t *testing.T) {
	b := NewBuilder("freedepth", NoOptimizations())
	x := b.Input("x")
	n1 := b.Not(x)
	n2 := b.Not(n1)
	g := b.And(n2, x)
	b.Output("o", g)
	nl := b.MustBuild()
	if d := nl.Depth(); d != 1 {
		t.Fatalf("depth = %d, want 1 (NOTs are free)", d)
	}
}

func TestStats(t *testing.T) {
	nl := buildHalfAdder(t, AllOptimizations())
	s := nl.ComputeStats()
	if s.Gates != 2 || s.Bootstrapped != 2 || s.Free != 0 {
		t.Fatalf("unexpected stats %+v", s)
	}
	if s.ByKind[logic.XOR] != 1 || s.ByKind[logic.AND] != 1 {
		t.Fatalf("unexpected kind histogram %v", s.ByKind)
	}
	if s.Depth != 1 || s.Levels != 1 || s.MaxWidth != 2 {
		t.Fatalf("unexpected structure stats %+v", s)
	}
}

func TestFanOut(t *testing.T) {
	b := NewBuilder("fan", NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	g := b.And(x, y)
	b.Output("o1", g)
	b.Output("o2", g)
	nl := b.MustBuild()
	fan := nl.FanOut()
	if fan[x] != 1 || fan[y] != 1 {
		t.Fatalf("input fanout %d/%d, want 1/1", fan[x], fan[y])
	}
	if fan[g] != 2 {
		t.Fatalf("gate fanout %d, want 2", fan[g])
	}
}

// TestOptimizedMatchesUnoptimized builds random expression trees twice —
// with and without optimizations — and checks functional equivalence on all
// inputs. This is the key safety property of the builder rewrites.
func TestOptimizedMatchesUnoptimized(t *testing.T) {
	build := func(seed int64, opts BuilderOptions) *Netlist {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("rand", opts)
		nodes := []NodeID{b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d")}
		for i := 0; i < 40; i++ {
			kind := logic.Kind(rng.Intn(logic.NumKinds))
			x := nodes[rng.Intn(len(nodes))]
			y := nodes[rng.Intn(len(nodes))]
			id := b.Gate(kind, x, y)
			nodes = append(nodes, id)
		}
		b.Output("out0", nodes[len(nodes)-1])
		b.Output("out1", nodes[len(nodes)-2])
		return b.MustBuild()
	}
	f := func(seed int64) bool {
		opt := build(seed, AllOptimizations())
		ref := build(seed, NoOptimizations())
		for v := 0; v < 16; v++ {
			in := []bool{v&1 != 0, v&2 != 0, v&4 != 0, v&8 != 0}
			a, err := opt.Evaluate(in)
			if err != nil {
				return false
			}
			b, err := ref.Evaluate(in)
			if err != nil {
				return false
			}
			if a[0] != b[0] || a[1] != b[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateInputMismatch(t *testing.T) {
	nl := buildHalfAdder(t, AllOptimizations())
	if _, err := nl.Evaluate([]bool{true}); err == nil {
		t.Fatal("expected input count error")
	}
}

func TestConstOutputs(t *testing.T) {
	b := NewBuilder("constout", AllOptimizations())
	x := b.Input("x")
	b.Output("zero", b.Xor(x, x))
	b.Output("one", b.Xnor(x, x))
	nl := b.MustBuild()
	out, err := nl.Evaluate([]bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false || out[1] != true {
		t.Fatalf("constant outputs evaluated to %v", out)
	}
	if len(nl.Gates) != 0 {
		t.Fatalf("constant outputs should produce no gates, got %d", len(nl.Gates))
	}
}
