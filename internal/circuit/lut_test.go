package circuit

import (
	"strings"
	"testing"

	"pytfhe/internal/logic"
)

const (
	ttMAJ  = logic.TT(0xE8) // majority(a,b,c)
	ttPAR3 = logic.TT(0x96) // a XOR b XOR c
	ttAND3 = logic.TT(0x80) // a AND b AND c (no single-bootstrap plan)
)

// evalRef evaluates a netlist against a cleartext reference function over
// every input assignment.
func evalRef(t *testing.T, nl *Netlist, ref func(bits []bool) bool) {
	t.Helper()
	n := nl.NumInputs
	for v := 0; v < 1<<n; v++ {
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = v>>i&1 == 1
		}
		outs, err := nl.Evaluate(bits)
		if err != nil {
			t.Fatalf("evaluate: %v", err)
		}
		if len(outs) != 1 {
			t.Fatalf("want 1 output, got %d", len(outs))
		}
		if outs[0] != ref(bits) {
			t.Fatalf("input %03b: got %v, want %v", v, outs[0], ref(bits))
		}
	}
}

func TestBuilderLUTMajority(t *testing.T) {
	b := NewBuilder("maj", AllOptimizations())
	in := b.Inputs("x", 3)
	b.Output("out", b.LUT(ttMAJ, in[0], in[1], in[2]))
	nl := b.MustBuild()
	if len(nl.Gates) != 1 || !nl.Gates[0].IsLUT() || nl.Gates[0].Arity != 3 {
		t.Fatalf("want a single arity-3 LUT gate, got %+v", nl.Gates)
	}
	evalRef(t, nl, func(x []bool) bool {
		n := 0
		for _, v := range x {
			if v {
				n++
			}
		}
		return n >= 2
	})
	s := nl.ComputeStats()
	if s.LUTs != 1 || s.LUTInputs != 3 || s.Bootstrapped != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestBuilderLUTConstFold(t *testing.T) {
	b := NewBuilder("fold", AllOptimizations())
	in := b.Inputs("x", 2)
	// majority(a, b, true) = a OR b: the constant folds into the table and
	// the node degenerates to a classic 2-input gate.
	id := b.LUT(ttMAJ, in[0], in[1], b.Const(true))
	b.Output("out", id)
	nl := b.MustBuild()
	if len(nl.Gates) != 1 || nl.Gates[0].IsLUT() || nl.Gates[0].Kind() != logic.OR {
		t.Fatalf("want one OR gate, got %+v", nl.Gates)
	}
}

func TestBuilderLUTDuplicateAndIgnored(t *testing.T) {
	b := NewBuilder("dup", AllOptimizations())
	in := b.Inputs("x", 2)
	// majority(a, b, b) = b: duplicate merge reduces the table to identity.
	if id := b.LUT(ttMAJ, in[0], in[1], in[1]); id != in[1] {
		t.Fatalf("majority(a,b,b) should fold to b, got node %d", id)
	}
	// A table that ignores its middle input degenerates to arity 2:
	// f(a,b,c) = a AND c.
	var tt logic.TT
	for v := 0; v < 8; v++ {
		if v>>2&1 == 1 && v&1 == 1 {
			tt |= 1 << v
		}
	}
	b.Output("out", b.LUT(tt, in[0], in[0], in[1]))
	nl := b.MustBuild()
	if len(nl.Gates) != 1 || nl.Gates[0].IsLUT() || nl.Gates[0].Kind() != logic.AND {
		t.Fatalf("want one AND gate, got %+v", nl.Gates)
	}
}

func TestBuilderLUTInfeasibleDecomposes(t *testing.T) {
	b := NewBuilder("and3", AllOptimizations())
	in := b.Inputs("x", 3)
	b.Output("out", b.LUT(ttAND3, in[0], in[1], in[2]))
	nl := b.MustBuild()
	for i := range nl.Gates {
		if nl.Gates[i].IsLUT() {
			t.Fatalf("AND3 has no LUT plan; gate %d is still a LUT", i)
		}
	}
	evalRef(t, nl, func(x []bool) bool { return x[0] && x[1] && x[2] })
}

func TestBuilderLUTCSEAcrossPermutation(t *testing.T) {
	b := NewBuilder("cse", AllOptimizations())
	in := b.Inputs("x", 3)
	// Majority is symmetric, so any operand order is the same function;
	// canonicalization must dedup it.
	a := b.LUT(ttMAJ, in[0], in[1], in[2])
	c := b.LUT(ttMAJ, in[2], in[0], in[1])
	if a != c {
		t.Fatalf("permuted majority not CSE'd: %d vs %d", a, c)
	}
	// Parity with one negated operand under a different order: parity is
	// also symmetric, and ¬ absorption plus permutation should reach the
	// same canonical node for both spellings of ¬(a⊕b⊕c).
	n0 := b.LUT(ttPAR3, b.Not(in[0]), in[1], in[2])
	n1 := b.LUT(ttPAR3, in[1], in[2], b.Not(in[0]))
	if n0 != n1 {
		t.Fatalf("negated parity not canonicalized: %d vs %d", n0, n1)
	}
	b.Output("out", n0)
	nl := b.MustBuild()
	evalRef(t, nl, func(x []bool) bool { return !x[0] != x[1] != x[2] })
}

func TestValidateRejectsBadLUT(t *testing.T) {
	mk := func(g Gate) *Netlist {
		return &Netlist{Name: "bad", NumInputs: 3, Gates: []Gate{g}, Outputs: []NodeID{4}}
	}
	cases := []struct {
		name string
		g    Gate
		frag string
	}{
		{"arity", Gate{A: 1, B: 2, C: 3, TT: ttMAJ, Arity: 5}, "arity"},
		{"wide", Gate{A: 1, B: 2, TT: 0xE8, Arity: 2}, "wider"},
		{"infeasible", Gate{A: 1, B: 2, C: 3, TT: ttAND3, Arity: 3}, "no single-bootstrap plan"},
		{"operand", Gate{A: 1, B: 2, C: 9, TT: ttMAJ, Arity: 3}, "topological"},
	}
	for _, c := range cases {
		err := mk(c.g).Validate()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %v, want fragment %q", c.name, err, c.frag)
		}
	}
	if err := mk(Gate{A: 1, B: 2, C: 3, TT: ttMAJ, Arity: 3}).Validate(); err != nil {
		t.Errorf("valid LUT rejected: %v", err)
	}
}

func TestLintLUTDiagnostics(t *testing.T) {
	nl := &Netlist{
		Name:      "lint",
		NumInputs: 3,
		Gates: []Gate{
			{A: 1, B: 2, C: 3, TT: ttMAJ, Arity: 3},  // fine
			{A: 1, B: 2, C: 3, TT: ttMAJ, Arity: 7},  // bad arity
			{A: 1, B: 2, TT: 0x96, Arity: 2},         // wide table
			{A: 1, B: 2, C: 3, TT: ttAND3, Arity: 3}, // infeasible
			{A: 1, B: 2, C: 3, TT: 0xFF, Arity: 3},   // constant LUT
		},
		Outputs: []NodeID{4, 5, 6, 7, 8},
	}
	r := Lint(nl)
	want := map[string]bool{
		CodeBadLUTArity:   false,
		CodeWideLUTTable:  false,
		CodeInfeasibleLUT: false,
		CodeConstGate:     false,
	}
	for _, d := range r.Diags {
		if _, ok := want[d.Code]; ok {
			want[d.Code] = true
		}
	}
	for code, seen := range want {
		if !seen {
			t.Errorf("lint did not emit %s; diags: %v", code, r.Diags)
		}
	}

	// A clean LUT netlist lints clean and counts its bootstraps.
	b := NewBuilder("clean", AllOptimizations())
	in := b.Inputs("x", 3)
	b.Output("out", b.LUT(ttPAR3, in[0], in[1], in[2]))
	clean := b.MustBuild()
	cr := Lint(clean)
	if err := cr.Err(); err != nil {
		t.Fatalf("clean LUT netlist lint: %v", err)
	}
	if cr.Bootstrapped != 1 {
		t.Fatalf("clean LUT netlist bootstrap count %d, want 1", cr.Bootstrapped)
	}
}
