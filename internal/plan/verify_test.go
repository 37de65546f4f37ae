package plan

import (
	"errors"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// clonePlan deep-copies a plan so mutation tests can seed defects without
// touching the compiled original.
func clonePlan(p *Plan) *Plan {
	q := &Plan{
		Name:      p.Name,
		NumInputs: p.NumInputs,
		outputs:   append([]Ref(nil), p.outputs...),
		stats:     p.stats,
		execOf:    append([]int32(nil), p.execOf...),
	}
	for _, lv := range p.levels {
		q.levels = append(q.levels, append([]Instr(nil), lv...))
	}
	return q
}

// mustCompile compiles or fails the test.
func mustCompile(t *testing.T, nl *circuit.Netlist) *Plan {
	t.Helper()
	p, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVerifyCompiledPlansPass(t *testing.T) {
	nets := []*circuit.Netlist{
		nandChains(5, 12),
		randomNetlist(7, 6, 40),
		randomNetlist(11, 10, 120),
		randomNetlist(13, 20, 200), // >12 inputs: sampled simulation
	}
	for _, nl := range nets {
		p := mustCompile(t, nl)
		r, err := Verify(nl, p)
		if err != nil {
			t.Fatalf("%s: compiled plan failed verification: %v", nl.Name, err)
		}
		if r.Instructions != p.stats.ExecGates || r.Levels != len(p.levels) || r.ArenaSlots != p.stats.ArenaSlots {
			t.Fatalf("%s: implausible report %+v", nl.Name, r)
		}
		if (nl.NumInputs <= 12) != r.Exhaustive {
			t.Fatalf("%s: exhaustive=%v with %d inputs", nl.Name, r.Exhaustive, nl.NumInputs)
		}
	}
}

func TestVerifyCountsDedupMerges(t *testing.T) {
	// AND(x,y), AND(y,x) and a rebuilt AND(x,y) are one function; NAND is
	// its own class.
	b := circuit.NewBuilder("dups", circuit.NoOptimizations())
	x, y := b.Input("x"), b.Input("y")
	g1 := b.Gate(logic.AND, x, y)
	g2 := b.Gate(logic.AND, y, x)
	g3 := b.Gate(logic.AND, x, y)
	g4 := b.Gate(logic.NAND, x, y)
	b.Output("a", g1)
	b.Output("b", g2)
	b.Output("c", g3)
	b.Output("d", g4)
	nl := b.MustBuild()
	p := mustCompile(t, nl)
	r, err := Verify(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.MergedNodes != 2 || r.DedupClasses != 1 {
		t.Fatalf("merged %d nodes in %d classes, want 2 in 1", r.MergedNodes, r.DedupClasses)
	}
}

// twoGates builds u=AND(x1,x2), v=OR(x1,x2), both outputs — the minimal
// netlist where a wrong merge is observable.
func twoGates(t *testing.T) (*circuit.Netlist, *Plan) {
	t.Helper()
	b := circuit.NewBuilder("two", circuit.NoOptimizations())
	x, y := b.Input("x"), b.Input("y")
	b.Output("and", b.Gate(logic.AND, x, y))
	b.Output("or", b.Gate(logic.OR, x, y))
	nl := b.MustBuild()
	return nl, mustCompile(t, nl)
}

// chain builds x1 -NAND x2-> g1 -NAND x2-> g2 -NAND x2-> g3, output g3.
func chain(t *testing.T, depth int) (*circuit.Netlist, *Plan) {
	t.Helper()
	b := circuit.NewBuilder("chain", circuit.NoOptimizations())
	x, y := b.Input("x"), b.Input("y")
	cur := x
	for i := 0; i < depth; i++ {
		cur = b.Gate(logic.NAND, cur, y)
	}
	b.Output("o", cur)
	nl := b.MustBuild()
	return nl, mustCompile(t, nl)
}

// findInstr locates the single instruction writing ref, failing the test
// when it is absent.
func findInstr(t *testing.T, p *Plan, ref Ref) (level, idx int) {
	t.Helper()
	for li, lv := range p.levels {
		for k, ins := range lv {
			if ins.Out == ref {
				return li, k
			}
		}
	}
	t.Fatalf("no instruction writes ref %d", ref)
	return 0, 0
}

// dropInstr removes instruction k of level li.
func dropInstr(p *Plan, li, k int) {
	p.levels[li] = append(p.levels[li][:k], p.levels[li][k+1:]...)
}

// pullDown moves the first instruction of level li+1 to the end of level
// li, where its operand is being produced.
func pullDown(p *Plan, li int) {
	ins := p.levels[li+1][0]
	dropInstr(p, li+1, 0)
	p.levels[li] = append(p.levels[li], ins)
}

func wantErr(t *testing.T, nl *circuit.Netlist, p *Plan, sentinel error, what string) {
	t.Helper()
	_, err := Verify(nl, p)
	if err == nil {
		t.Fatalf("%s: mutated plan passed verification", what)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("%s: got %v, want %v", what, err, sentinel)
	}
}

func TestVerifyShapeDefects(t *testing.T) {
	nl, p := chain(t, 2)

	m := clonePlan(p)
	m.levels[0][0].TT = 99
	wantErr(t, nl, m, ErrShape, "unknown kind")

	m = clonePlan(p)
	m.levels[0][0].Out = Ref(m.NumInputs + m.stats.ArenaSlots + 5)
	wantErr(t, nl, m, ErrShape, "out ref past arena")

	m = clonePlan(p)
	m.levels[0][0].A = -3
	wantErr(t, nl, m, ErrShape, "negative operand ref")

	m = clonePlan(p)
	m.execOf = m.execOf[:len(m.execOf)-1]
	wantErr(t, nl, m, ErrShape, "truncated dedup map")

	m = clonePlan(p)
	m.outputs[0] = Ref(m.NumInputs + m.stats.ArenaSlots)
	wantErr(t, nl, m, ErrShape, "output ref past arena")

	m = clonePlan(p)
	m.NumInputs++
	wantErr(t, nl, m, ErrShape, "input count mismatch")
}

func TestVerifyDroppedInstruction(t *testing.T) {
	// Drop the first gate: its consumer now reads a never-written slot.
	nl, p := chain(t, 3)
	li, k := findInstr(t, p, p.levels[0][0].Out)
	m := clonePlan(p)
	dropInstr(m, li, k)
	wantErr(t, nl, m, ErrOrder, "dropped producer")

	// Dropping the final gate instead starves the output ref.
	nl2, p2 := chain(t, 2)
	li, k = findInstr(t, p2, p2.outputs[0])
	m = clonePlan(p2)
	dropInstr(m, li, k)
	wantErr(t, nl2, m, ErrOrder, "dropped output producer")
}

func TestVerifyLifetimeOverlap(t *testing.T) {
	// Two independent gates share level 1; retargeting one onto the
	// other's slot makes two live values collide in one wavefront.
	nl, p := twoGates(t)
	if len(p.levels[0]) < 2 {
		t.Fatalf("expected both gates in level 0, have %d", len(p.levels[0]))
	}
	m := clonePlan(p)
	m.levels[0][1].Out = m.levels[0][0].Out
	wantErr(t, nl, m, ErrLifetime, "double write")
}

// TestVerifyBatchAlias pins the dispatch-group aliases: a reader placed in
// the wavefront of the bootstrap it depends on. A batched kernel call
// would buffer both, so the plan is rejected as a lifetime overlap.
func TestVerifyBatchAlias(t *testing.T) {
	// Read/write overlap in one wavefront: pull the level-2 consumer down
	// into level 1, where its operand is being produced. Whether the two
	// run in sequence, on two workers or in one batched kernel dispatch
	// is run time's choice, so every such plan is rejected.
	nl, p := chain(t, 2)
	m := clonePlan(p)
	pullDown(m, 0)
	wantErr(t, nl, m, ErrLifetime, "same-level read/write")

	// A free instruction pulled next to the bootstrap it reads: in a
	// batched dispatch it would run inline before the pending bootstrap
	// is computed.
	b := circuit.NewBuilder("free-alias", circuit.NoOptimizations())
	x, y := b.Input("x"), b.Input("y")
	g := b.Gate(logic.NAND, x, y)
	b.Output("o", b.Gate(logic.NOT, g, g))
	nl2 := b.MustBuild()
	m = clonePlan(mustCompile(t, nl2))
	pullDown(m, 0)
	wantErr(t, nl2, m, ErrLifetime, "free instr reads a same-level bootstrap")
}

func TestVerifyWrongDedupMerge(t *testing.T) {
	nl, p := twoGates(t)
	andID, orID := nl.GateID(0), nl.GateID(1)

	// The realistic wrong merge: drop OR's instruction, repoint its
	// output and dedup entry at AND — exactly what a buggy truth-table
	// hash would compile.
	m := clonePlan(p)
	andRef := m.outputs[0]
	li, k := findInstr(t, m, m.outputs[1])
	dropInstr(m, li, k)
	m.outputs[1] = andRef
	m.execOf[orID] = m.execOf[andID]
	wantErr(t, nl, m, ErrDedup, "wrong merge, instruction dropped")

	// A corrupted dedup record alone (instructions intact) must also be
	// refuted by the independent cone comparison.
	m = clonePlan(p)
	m.execOf[orID] = m.execOf[andID]
	wantErr(t, nl, m, ErrDedup, "corrupted dedup map")
}

func TestVerifySemanticsDefects(t *testing.T) {
	nl, p := twoGates(t)

	// Swapped output wiring.
	m := clonePlan(p)
	m.outputs[0], m.outputs[1] = m.outputs[1], m.outputs[0]
	wantErr(t, nl, m, ErrSemantics, "swapped outputs")

	// Swapped instruction output slots (readers and outputs not updated).
	m = clonePlan(p)
	lv := m.levels[0]
	lv[0].Out, lv[1].Out = lv[1].Out, lv[0].Out
	wantErr(t, nl, m, ErrSemantics, "swapped slots")

	// A silently flipped gate kind.
	m = clonePlan(p)
	li, k := findInstr(t, m, m.outputs[0])
	m.levels[li][k].TT = logic.TTOf(logic.XOR)
	wantErr(t, nl, m, ErrSemantics, "flipped kind")
}

func TestVerifyRejectsInvalidNetlist(t *testing.T) {
	nl, p := chain(t, 2)
	bad := &circuit.Netlist{
		Name:      nl.Name,
		NumInputs: nl.NumInputs,
		Gates:     []circuit.Gate{{TT: logic.TTOf(logic.AND), A: 9, B: 1}},
		Outputs:   nl.Outputs,
	}
	if _, err := Verify(bad, p); err == nil {
		t.Fatal("invalid netlist accepted")
	}
}
