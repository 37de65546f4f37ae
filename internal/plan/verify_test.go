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
		Workers:   p.Workers,
		outputs:   append([]Ref(nil), p.outputs...),
		stats:     p.stats,
		execOf:    append([]int32(nil), p.execOf...),
	}
	for _, lv := range p.levels {
		nb := make([][]Instr, len(lv.Batches))
		for w, b := range lv.Batches {
			nb[w] = append([]Instr(nil), b...)
		}
		q.levels = append(q.levels, Level{Batches: nb})
	}
	return q
}

// mustCompile compiles or fails the test.
func mustCompile(t *testing.T, nl *circuit.Netlist, workers int) *Plan {
	t.Helper()
	p, err := Compile(nl, workers)
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
		for _, workers := range []int{1, 2, 4} {
			p := mustCompile(t, nl, workers)
			for _, batch := range []int{1, 3, 16} {
				r, err := VerifyBatch(nl, p, batch)
				if err != nil {
					t.Fatalf("%s/w%d/b%d: compiled plan failed verification: %v", nl.Name, workers, batch, err)
				}
				if r.Instructions == 0 || r.Levels != len(p.levels) || r.ArenaSlots != p.stats.ArenaSlots {
					t.Fatalf("%s/w%d/b%d: implausible report %+v", nl.Name, workers, batch, r)
				}
				if (nl.NumInputs <= 12) != r.Exhaustive {
					t.Fatalf("%s: exhaustive=%v with %d inputs", nl.Name, r.Exhaustive, nl.NumInputs)
				}
			}
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
	p := mustCompile(t, nl, 1)
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
	return nl, mustCompile(t, nl, 1)
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
	return nl, mustCompile(t, nl, 1)
}

// findInstr locates the single instruction writing ref, failing the test
// when it is absent.
func findInstr(t *testing.T, p *Plan, ref Ref) (level, worker, idx int) {
	t.Helper()
	for li, lv := range p.levels {
		for w, instrs := range lv.Batches {
			for k, ins := range instrs {
				if ins.Out == ref {
					return li, w, k
				}
			}
		}
	}
	t.Fatalf("no instruction writes ref %d", ref)
	return 0, 0, 0
}

func wantErr(t *testing.T, nl *circuit.Netlist, p *Plan, batch int, sentinel error, what string) {
	t.Helper()
	_, err := VerifyBatch(nl, p, batch)
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
	m.levels[0].Batches[0][0].Kind = logic.Kind(99)
	wantErr(t, nl, m, 1, ErrShape, "unknown kind")

	m = clonePlan(p)
	m.levels[0].Batches[0][0].Out = Ref(m.NumInputs + m.stats.ArenaSlots + 5)
	wantErr(t, nl, m, 1, ErrShape, "out ref past arena")

	m = clonePlan(p)
	m.levels[0].Batches[0][0].A = -3
	wantErr(t, nl, m, 1, ErrShape, "negative operand ref")

	m = clonePlan(p)
	m.execOf = m.execOf[:len(m.execOf)-1]
	wantErr(t, nl, m, 1, ErrShape, "truncated dedup map")

	m = clonePlan(p)
	m.outputs[0] = Ref(m.NumInputs + m.stats.ArenaSlots)
	wantErr(t, nl, m, 1, ErrShape, "output ref past arena")

	m = clonePlan(p)
	m.NumInputs++
	wantErr(t, nl, m, 1, ErrShape, "input count mismatch")
}

func TestVerifyDroppedInstruction(t *testing.T) {
	// Drop the first gate: its consumer now reads a never-written slot.
	nl, p := chain(t, 3)
	firstOut := p.levels[0].Batches[0][0].Out
	li, w, k := findInstr(t, p, firstOut)
	m := clonePlan(p)
	m.levels[li].Batches[w] = append(m.levels[li].Batches[w][:k], m.levels[li].Batches[w][k+1:]...)
	wantErr(t, nl, m, 1, ErrOrder, "dropped producer")

	// Dropping the final gate instead starves the output ref.
	nl2, p2 := chain(t, 2)
	li, w, k = findInstr(t, p2, p2.outputs[0])
	m = clonePlan(p2)
	m.levels[li].Batches[w] = append(m.levels[li].Batches[w][:k], m.levels[li].Batches[w][k+1:]...)
	wantErr(t, nl2, m, 1, ErrOrder, "dropped output producer")
}

func TestVerifyLifetimeOverlap(t *testing.T) {
	// Two independent gates share level 1; retargeting one onto the
	// other's slot makes two live values collide in one wavefront.
	nl, p := twoGates(t)
	var refs []struct{ w, k int }
	for w, instrs := range p.levels[0].Batches {
		for k := range instrs {
			refs = append(refs, struct{ w, k int }{w, k})
		}
	}
	if len(refs) < 2 {
		t.Fatalf("expected both gates in level 0, have %d", len(refs))
	}
	m := clonePlan(p)
	a, b := refs[0], refs[1]
	m.levels[0].Batches[b.w][b.k].Out = m.levels[0].Batches[a.w][a.k].Out
	wantErr(t, nl, m, 1, ErrLifetime, "double write")

	// Read/write overlap in one wavefront: pull the level-2 consumer down
	// into level 1, where its operand is being produced. Under sequential
	// replay that is a lifetime violation (wrong-generation read), not a
	// batch-dispatch alias.
	nl2, p2 := chain(t, 2)
	m = clonePlan(p2)
	consumer := m.levels[1].Batches[0][0]
	m.levels[1].Batches[0] = m.levels[1].Batches[0][:0]
	m.levels[0].Batches[0] = append(m.levels[0].Batches[0], consumer)
	wantErr(t, nl2, m, 1, ErrLifetime, "same-level read/write")
}

func TestVerifyBatchAlias(t *testing.T) {
	// The same collapsed plan — producer and consumer forced into one
	// worker's sequence — classifies as a dispatch-group alias when the
	// batched schedule would buffer both bootstraps into one kernel call.
	nl, p := chain(t, 2)
	m := clonePlan(p)
	consumer := m.levels[1].Batches[0][0]
	m.levels[1].Batches[0] = m.levels[1].Batches[0][:0]
	m.levels[0].Batches[0] = append(m.levels[0].Batches[0], consumer)
	wantErr(t, nl, m, 4, ErrBatchAlias, "intra-dispatch alias")

	// With batch 1 the same plan is sequential and the defect is a
	// lifetime overlap instead — the classes stay distinct.
	wantErr(t, nl, m, 1, ErrLifetime, "sequential classification")

	// A free instruction interleaved with a pending buffered bootstrap it
	// depends on is the Interp.Run reorder hazard: the kernel's combos form
	// before the inline free ran... and the free gate reads a slot the
	// open dispatch group will write.
	b := circuit.NewBuilder("free-alias", circuit.NoOptimizations())
	x, y := b.Input("x"), b.Input("y")
	g := b.Gate(logic.NAND, x, y)
	n := b.Gate(logic.NOT, g, g)
	b.Output("o", n)
	nl2 := b.MustBuild()
	p2 := mustCompile(t, nl2, 1)
	m2 := clonePlan(p2)
	free := m2.levels[1].Batches[0][0]
	m2.levels[1].Batches[0] = m2.levels[1].Batches[0][:0]
	m2.levels[0].Batches[0] = append(m2.levels[0].Batches[0], free)
	wantErr(t, nl2, m2, 4, ErrBatchAlias, "free instr in open dispatch group")
}

func TestVerifyWrongDedupMerge(t *testing.T) {
	nl, p := twoGates(t)
	andID, orID := nl.GateID(0), nl.GateID(1)

	// The realistic wrong merge: drop OR's instruction, repoint its
	// output and dedup entry at AND — exactly what a buggy truth-table
	// hash would compile.
	m := clonePlan(p)
	andRef := m.outputs[0]
	li, w, k := findInstr(t, m, m.outputs[1])
	m.levels[li].Batches[w] = append(m.levels[li].Batches[w][:k], m.levels[li].Batches[w][k+1:]...)
	m.outputs[1] = andRef
	m.execOf[orID] = m.execOf[andID]
	wantErr(t, nl, m, 1, ErrDedup, "wrong merge, instruction dropped")

	// A corrupted dedup record alone (instructions intact) must also be
	// refuted by the independent cone comparison.
	m = clonePlan(p)
	m.execOf[orID] = m.execOf[andID]
	wantErr(t, nl, m, 1, ErrDedup, "corrupted dedup map")
}

func TestVerifySemanticsDefects(t *testing.T) {
	nl, p := twoGates(t)

	// Swapped output wiring.
	m := clonePlan(p)
	m.outputs[0], m.outputs[1] = m.outputs[1], m.outputs[0]
	wantErr(t, nl, m, 1, ErrSemantics, "swapped outputs")

	// Swapped instruction output slots (readers and outputs not updated).
	m = clonePlan(p)
	var sites []struct{ w, k int }
	for w, instrs := range m.levels[0].Batches {
		for k := range instrs {
			sites = append(sites, struct{ w, k int }{w, k})
		}
	}
	a, b := sites[0], sites[1]
	m.levels[0].Batches[a.w][a.k].Out, m.levels[0].Batches[b.w][b.k].Out =
		m.levels[0].Batches[b.w][b.k].Out, m.levels[0].Batches[a.w][a.k].Out
	wantErr(t, nl, m, 1, ErrSemantics, "swapped slots")

	// A silently flipped gate kind.
	m = clonePlan(p)
	li, w, k := findInstr(t, m, m.outputs[0])
	m.levels[li].Batches[w][k].Kind = logic.XOR
	wantErr(t, nl, m, 1, ErrSemantics, "flipped kind")
}

func TestVerifyRejectsInvalidNetlist(t *testing.T) {
	nl, p := chain(t, 2)
	bad := &circuit.Netlist{
		Name:      nl.Name,
		NumInputs: nl.NumInputs,
		Gates:     []circuit.Gate{{Kind: logic.AND, A: 9, B: 1}},
		Outputs:   nl.Outputs,
	}
	if _, err := Verify(bad, p); err == nil {
		t.Fatal("invalid netlist accepted")
	}
}
