package circuit

import (
	"strings"
	"testing"

	"pytfhe/internal/logic"
)

func diagCodes(r *Report) map[string]int {
	codes := map[string]int{}
	for _, d := range r.Diags {
		codes[d.Code]++
	}
	return codes
}

// lintAdder builds a clean two-bit adder-ish netlist: Lint must pass it
// with no diagnostics and a sensible structure report.
func TestLintCleanNetlist(t *testing.T) {
	b := NewBuilder("clean", AllOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	b.Output("s", b.Xor(x, y))
	b.Output("c", b.And(x, y))
	nl := b.MustBuild()

	r := Lint(nl)
	if err := r.Err(); err != nil {
		t.Fatalf("clean netlist flagged: %v\n%s", err, r)
	}
	if len(r.Diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", r.Diags)
	}
	if r.Depth != 1 || r.Gates != 2 || r.DeadGates != 0 {
		t.Fatalf("structure report wrong: %+v", r)
	}
	if r.MaxFanOut < 2 {
		t.Fatalf("fan-out of shared inputs not reported: %+v", r)
	}
}

// TestLintCycle: gates 2 and 3 read each other — a dependency cycle that
// Validate would reject as a forward reference but Lint names precisely.
func TestLintCycle(t *testing.T) {
	nl := &Netlist{
		Name:      "cyclic",
		NumInputs: 1,
		Gates: []Gate{
			{TT: logic.TTOf(logic.AND), A: 1, B: 3}, // node 2 reads node 3
			{TT: logic.TTOf(logic.OR), A: 2, B: 1},  // node 3 reads node 2
		},
		Outputs: []NodeID{3},
	}
	r := Lint(nl)
	codes := diagCodes(r)
	if codes[CodeCycle] == 0 {
		t.Fatalf("cycle not detected: %v", r.Diags)
	}
	if r.Err() == nil {
		t.Fatal("cyclic netlist must be an error")
	}
	var msg string
	for _, d := range r.Diags {
		if d.Code == CodeCycle {
			msg = d.Message
		}
	}
	if !strings.Contains(msg, "2") || !strings.Contains(msg, "3") {
		t.Fatalf("cycle message does not name the nodes: %q", msg)
	}
}

// TestLintUndrivenWire: an operand past the last defined node.
func TestLintUndrivenWire(t *testing.T) {
	nl := &Netlist{
		Name:      "undriven",
		NumInputs: 1,
		Gates:     []Gate{{TT: logic.TTOf(logic.AND), A: 1, B: 9}}, // node 9 does not exist
		Outputs:   []NodeID{2},
	}
	r := Lint(nl)
	if diagCodes(r)[CodeUndrivenWire] != 1 {
		t.Fatalf("undriven wire not detected: %v", r.Diags)
	}
	if r.Err() == nil {
		t.Fatal("undriven wire must be an error")
	}
}

// TestLintBadGateType: a kind outside the 4-bit alphabet.
func TestLintBadGateType(t *testing.T) {
	nl := &Netlist{
		Name:      "badtype",
		NumInputs: 2,
		Gates:     []Gate{{TT: logic.TT(17), A: 1, B: 2}},
		Outputs:   []NodeID{3},
	}
	r := Lint(nl)
	if diagCodes(r)[CodeBadGateType] != 1 {
		t.Fatalf("bad gate type not detected: %v", r.Diags)
	}
	if r.Err() == nil {
		t.Fatal("bad gate type must be an error")
	}
}

// TestLintConstGateWarns: constant TRUE/FALSE gates are legal to execute
// but should have been folded — warning, not error.
func TestLintConstGateWarns(t *testing.T) {
	nl := &Netlist{
		Name:      "constgate",
		NumInputs: 1,
		Gates:     []Gate{{TT: logic.TTOf(logic.True), A: 1, B: 1}},
		Outputs:   []NodeID{2},
	}
	r := Lint(nl)
	if diagCodes(r)[CodeConstGate] != 1 {
		t.Fatalf("const gate not flagged: %v", r.Diags)
	}
	if r.Err() != nil {
		t.Fatalf("const gate must stay a warning: %v", r.Err())
	}
}

// TestLintOutputDiagnostics: dangling and duplicate output ports.
func TestLintOutputDiagnostics(t *testing.T) {
	nl := &Netlist{
		Name:      "outputs",
		NumInputs: 2,
		Gates:     []Gate{{TT: logic.TTOf(logic.XOR), A: 1, B: 2}},
		Outputs:   []NodeID{3, 3, 44},
	}
	r := Lint(nl)
	codes := diagCodes(r)
	if codes[CodeDanglingOut] != 1 {
		t.Fatalf("dangling output not detected: %v", r.Diags)
	}
	if codes[CodeDupOutput] != 1 {
		t.Fatalf("duplicate output not detected: %v", r.Diags)
	}
}

// TestLintDeadGates: a gate feeding nothing is reported (info) with the
// correct count, without making the program an error.
func TestLintDeadGates(t *testing.T) {
	nl := &Netlist{
		Name:      "dead",
		NumInputs: 2,
		Gates: []Gate{
			{TT: logic.TTOf(logic.XOR), A: 1, B: 2}, // node 3: exported
			{TT: logic.TTOf(logic.AND), A: 1, B: 2}, // node 4: dead
			{TT: logic.TTOf(logic.OR), A: 4, B: 4},  // node 5: dead (feeds only dead)
		},
		Outputs: []NodeID{3},
	}
	r := Lint(nl)
	if r.DeadGates != 2 {
		t.Fatalf("dead gates = %d, want 2: %v", r.DeadGates, r.Diags)
	}
	if diagCodes(r)[CodeDeadGates] != 1 {
		t.Fatalf("dead-gate report missing: %v", r.Diags)
	}
	if r.Err() != nil {
		t.Fatalf("dead gates must not be an error: %v", r.Err())
	}
}

// TestLintSelfLoop: a gate reading its own output is a cycle of length 1.
func TestLintSelfLoop(t *testing.T) {
	nl := &Netlist{
		Name:      "self",
		NumInputs: 1,
		Gates:     []Gate{{TT: logic.TTOf(logic.AND), A: 2, B: 1}},
		Outputs:   []NodeID{2},
	}
	r := Lint(nl)
	if diagCodes(r)[CodeCycle] == 0 {
		t.Fatalf("self-loop not detected: %v", r.Diags)
	}
}
