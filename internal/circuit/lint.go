package circuit

import (
	"fmt"
	"sort"
	"strings"

	"pytfhe/internal/logic"
)

// Severity ranks a lint diagnostic.
type Severity int

// Severities. Errors make a program unsafe to execute; warnings are
// legal-but-suspicious shapes; infos are reports.
const (
	SevError Severity = iota
	SevWarning
	SevInfo
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "info"
}

// Diagnostic is one netlist lint finding. Code is a stable machine-readable
// identifier; each distinct defect class gets its own code.
type Diagnostic struct {
	Severity Severity
	Code     string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s [%s]: %s", d.Severity, d.Code, d.Message)
}

// Diagnostic codes emitted by Lint.
const (
	CodeCycle         = "cycle"           // gate dependency cycle
	CodeUndrivenWire  = "undriven-wire"   // gate operand names a node no instruction drives
	CodeBadGateType   = "bad-gate-type"   // gate kind outside the 4-bit alphabet
	CodeConstGate     = "const-gate"      // constant TRUE/FALSE gate survived synthesis
	CodeDanglingOut   = "dangling-output" // output port names a nonexistent node
	CodeDupOutput     = "dup-output"      // two output ports export the same node
	CodeNoOutputs     = "no-outputs"      // program computes nothing observable
	CodeDeadGates     = "dead-gates"      // gates unreachable from any output
	CodeForwardRef    = "forward-ref"     // operand defined later than its reader (needs re-sort)
	CodeShapeMismatch = "shape-mismatch"  // name tables disagree with port counts
	CodeBadLUTArity   = "bad-lut-arity"   // LUT arity outside [2, logic.MaxLUTArity]
	CodeWideLUTTable  = "wide-lut-table"  // LUT truth table wider than 2^arity bits
	CodeInfeasibleLUT = "infeasible-lut"  // LUT table with no single-bootstrap plan
	CodeIndexSpace    = "index-space"     // a node id or the node count past MaxNodeID
)

// Report is the result of linting one netlist: diagnostics plus the
// structural summary (depth, widths, fan-out) used by capacity planning.
type Report struct {
	Name  string
	Diags []Diagnostic

	// Structure summary; valid when the netlist is acyclic.
	Inputs       int
	Gates        int
	Outputs      int
	Bootstrapped int
	Depth        int
	Levels       int
	MaxWidth     int
	DeadGates    int
	MaxFanOut    int
	MaxFanOutID  NodeID
}

// Err returns a non-nil error summarizing the report when any
// error-severity diagnostic is present.
func (r *Report) Err() error {
	n := 0
	var first *Diagnostic
	for i := range r.Diags {
		if r.Diags[i].Severity == SevError {
			if first == nil {
				first = &r.Diags[i]
			}
			n++
		}
	}
	if first == nil {
		return nil
	}
	return fmt.Errorf("circuit: netlist %q has %d lint error(s), first: %s", r.Name, n, *first)
}

// String renders the report for humans: diagnostics, then the structure
// summary.
func (r *Report) String() string {
	var sb strings.Builder
	for _, d := range r.Diags {
		fmt.Fprintf(&sb, "%s\n", d)
	}
	fmt.Fprintf(&sb, "netlist %s: %d inputs, %d gates (%d bootstrapped), %d outputs\n",
		r.Name, r.Inputs, r.Gates, r.Bootstrapped, r.Outputs)
	fmt.Fprintf(&sb, "depth %d, %d wavefronts (widest %d), %d dead gate(s), max fan-out %d (node %d)\n",
		r.Depth, r.Levels, r.MaxWidth, r.DeadGates, r.MaxFanOut, r.MaxFanOutID)
	return sb.String()
}

// Lint statically verifies a netlist before execution. It applies the
// rules Validate enforces (see check) but reports every violation rather
// than the first, and then treats the netlist as an untrusted general
// graph (the shape a hand-crafted or corrupted program binary can take):
//
//   - operands that no instruction drives (undriven-wire) and operands
//     defined after their reader (forward-ref), plus dependency cycles
//     over the gate DAG (cycle)
//   - gate types outside the 4-bit alphabet (bad-gate-type), constant
//     gates that synthesis should have folded (const-gate) and LUT
//     defects (bad-lut-arity, wide-lut-table, infeasible-lut)
//   - output ports naming nonexistent nodes (dangling-output), duplicate
//     exports (dup-output), and programs with no outputs at all
//   - gates whose results can never reach an output (dead-gates)
//
// plus a depth / wavefront / fan-out structure report. A netlist has an
// error-severity finding exactly when Validate rejects it.
func Lint(nl *Netlist) *Report {
	r := &Report{
		Name:    nl.Name,
		Inputs:  nl.NumInputs,
		Gates:   len(nl.Gates),
		Outputs: len(nl.Outputs),
	}
	diag := func(sev Severity, code, format string, args ...any) bool {
		r.Diags = append(r.Diags, Diagnostic{sev, code, fmt.Sprintf(format, args...)})
		return true
	}
	nl.check(diag)
	if nl.NumInputs < 0 || nl.NumNodes() > MaxNodeID {
		return r
	}

	numNodes := NodeID(nl.NumNodes())
	seen := map[NodeID][]int{}
	for i, out := range nl.Outputs {
		if !out.IsConst() && out > 0 && out <= numNodes {
			seen[out] = append(seen[out], i)
		}
	}
	dups := make([]NodeID, 0, len(seen))
	for id, ports := range seen {
		if len(ports) > 1 {
			dups = append(dups, id)
		}
	}
	sort.Slice(dups, func(i, j int) bool { return dups[i] < dups[j] })
	for _, id := range dups {
		diag(SevWarning, CodeDupOutput, "node %d is exported by output ports %v", id, seen[id])
	}
	if len(nl.Outputs) == 0 {
		diag(SevWarning, CodeNoOutputs, "netlist has no outputs; nothing is observable")
	}

	// Cycle detection over the gate graph, treating the netlist as a
	// general (possibly non-topological) graph.
	if cycle := findCycle(nl); cycle != nil {
		diag(SevError, CodeCycle, "gate dependency cycle: %s", formatCycle(cycle))
	} else {
		// The structure summary is only meaningful on an acyclic graph.
		for i := range nl.Gates {
			g := &nl.Gates[i]
			if g.IsLUT() || (g.Kind() < logic.NumKinds && g.Kind().NeedsBootstrap()) {
				r.Bootstrapped++
			}
		}
		r.DeadGates = countDeadGates(nl)
		if r.DeadGates > 0 {
			diag(SevInfo, CodeDeadGates, "%d of %d gates cannot reach any output (dead logic)", r.DeadGates, len(nl.Gates))
		}
		// Depth/wavefront/fan-out passes index by node id and assume a
		// defect-free graph; skip them when wiring errors were found.
		if r.Err() == nil {
			stats := nl.ComputeStats()
			r.Depth, r.Levels, r.MaxWidth = stats.Depth, stats.Levels, stats.MaxWidth
			for id, f := range nl.FanOut() {
				if int(f) > r.MaxFanOut {
					r.MaxFanOut, r.MaxFanOutID = int(f), NodeID(id)
				}
			}
		}
	}
	return r
}

// check applies the netlist, gate and output rules Validate and Lint
// share, in netlist order, handing each violation to emit; it stops as
// soon as emit returns false. Validate stops at the first error and Lint
// collects them all, so the two cannot disagree on which netlists are
// well-formed.
func (nl *Netlist) check(emit func(sev Severity, code, format string, args ...any) bool) {
	if nl.NumInputs < 0 {
		emit(SevError, CodeShapeMismatch, "negative input count %d", nl.NumInputs)
		return
	}
	if nl.NumNodes() > MaxNodeID {
		// Past the bound, GateID would wrap; nothing below is meaningful.
		emit(SevError, CodeIndexSpace, "%d inputs + %d gates exceed the %d-node bound", nl.NumInputs, len(nl.Gates), MaxNodeID)
		return
	}
	if nl.InputNames != nil && len(nl.InputNames) != nl.NumInputs &&
		!emit(SevError, CodeShapeMismatch, "%d input names for %d inputs", len(nl.InputNames), nl.NumInputs) {
		return
	}
	if nl.OutputNames != nil && len(nl.OutputNames) != len(nl.Outputs) &&
		!emit(SevError, CodeShapeMismatch, "%d output names for %d outputs", len(nl.OutputNames), len(nl.Outputs)) {
		return
	}
	numNodes := NodeID(nl.NumNodes())
	for i := range nl.Gates {
		g := &nl.Gates[i]
		id := nl.GateID(i)
		nOps := g.NumOperands()
		keep := true
		switch {
		case !g.IsLUT() && g.Kind() >= logic.NumKinds:
			keep = emit(SevError, CodeBadGateType, "gate %d has type %d, outside the 4-bit gate alphabet", id, g.TT)
		case !g.IsLUT() && g.Kind().IsConst():
			keep = emit(SevWarning, CodeConstGate, "gate %d is constant %s; synthesis should have folded it", id, g.Kind())
		case !g.IsLUT():
		case g.Arity < 2 || int(g.Arity) > logic.MaxLUTArity:
			keep = emit(SevError, CodeBadLUTArity, "gate %d is a LUT with arity %d, outside [2, %d]", id, g.Arity, logic.MaxLUTArity)
			nOps = 2
		case g.TT != g.TT&logic.TTMask(nOps):
			keep = emit(SevError, CodeWideLUTTable, "gate %d holds truth table %#x, wider than the %d bits arity %d allows", id, g.TT, 1<<nOps, g.Arity)
		case logic.LUTFeasible(nOps, g.TT):
		case g.TT == 0 || g.TT == logic.TTMask(nOps):
			// A constant table has no single-bootstrap plan either.
			keep = emit(SevError, CodeConstGate, "gate %d is a constant LUT (table %#x) with no single-bootstrap plan; synthesis should have folded it", id, g.TT)
		default:
			keep = emit(SevError, CodeInfeasibleLUT, "gate %d: LUT table %#x has no single-bootstrap plan at arity %d", id, g.TT, g.Arity)
		}
		for k := 0; keep && k < nOps; k++ {
			switch in := g.Operand(k); {
			case in <= 0:
				keep = emit(SevError, CodeUndrivenWire, "gate %d (%s) reads node %d, which no instruction drives", id, gateName(g), in)
			case in > numNodes:
				keep = emit(SevError, CodeUndrivenWire, "gate %d (%s) reads node %d, past the last defined node %d, violating topological order", id, gateName(g), in, numNodes)
			case in >= id:
				keep = emit(SevError, CodeForwardRef, "gate %d (%s) reads node %d, defined at or after it, violating topological order", id, gateName(g), in)
			}
		}
		if !keep {
			return
		}
	}
	for i, out := range nl.Outputs {
		if !out.IsConst() && (out <= 0 || out > numNodes) &&
			!emit(SevError, CodeDanglingOut, "output %d names nonexistent node %d", i, out) {
			return
		}
	}
}

// gateName renders a gate's function for diagnostics: the kind mnemonic
// for classic gates, "lutK(table)" for LUT nodes.
func gateName(g *Gate) string {
	if g.IsLUT() {
		return fmt.Sprintf("lut%d(%#x)", g.Arity, g.TT)
	}
	return g.Kind().String()
}

// findCycle runs an iterative three-color DFS over the gate dependency
// graph (edges gate -> operand gate) and returns one cycle as a node-id
// sequence, or nil. Out-of-range operands are ignored here; they are
// reported separately as undriven wires.
func findCycle(nl *Netlist) []NodeID {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current DFS path
		black = 2 // finished
	)
	color := make([]byte, len(nl.Gates))
	parent := make([]int, len(nl.Gates))

	operands := func(gi int) []int {
		var ops []int
		g := &nl.Gates[gi]
		for k := 0; k < g.NumOperands(); k++ {
			if j := nl.GateIndex(g.Operand(k)); j >= 0 {
				ops = append(ops, j)
			}
		}
		return ops
	}

	for start := range nl.Gates {
		if color[start] != white {
			continue
		}
		parent[start] = -1
		stack := []int{start}
		for len(stack) > 0 {
			gi := stack[len(stack)-1]
			if color[gi] == white {
				color[gi] = gray
				for _, op := range operands(gi) {
					switch color[op] {
					case white:
						parent[op] = gi
						stack = append(stack, op)
					case gray:
						// Back edge: walk parents from gi to op.
						cycle := []NodeID{nl.GateID(op)}
						for v := gi; v != op && v >= 0; v = parent[v] {
							cycle = append(cycle, nl.GateID(v))
						}
						cycle = append(cycle, nl.GateID(op))
						// Reverse into dependency order.
						for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
							cycle[i], cycle[j] = cycle[j], cycle[i]
						}
						return cycle
					}
				}
			} else {
				color[gi] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

func formatCycle(cycle []NodeID) string {
	parts := make([]string, len(cycle))
	for i, id := range cycle {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return strings.Join(parts, " -> ")
}

// countDeadGates counts gates whose output can never reach an output port,
// via reverse reachability from the output set.
func countDeadGates(nl *Netlist) int {
	live := make([]bool, len(nl.Gates))
	var stack []int
	mark := func(id NodeID) {
		if gi := nl.GateIndex(id); gi >= 0 && !live[gi] {
			live[gi] = true
			stack = append(stack, gi)
		}
	}
	for _, out := range nl.Outputs {
		mark(out)
	}
	for len(stack) > 0 {
		gi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := &nl.Gates[gi]
		for k := 0; k < g.NumOperands(); k++ {
			mark(g.Operand(k))
		}
	}
	dead := 0
	for _, l := range live {
		if !l {
			dead++
		}
	}
	return dead
}
