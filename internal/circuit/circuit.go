// Package circuit defines the gate-level intermediate representation of the
// toolchain: a directed acyclic graph of boolean gates with named input and
// output ports, in strict topological order. Every gate is one record, a
// truth table and an arity: a classic two-input gate is the arity-0 table
// of its logic.Kind, a k-input LUT the table of arity k.
//
// A Netlist is what the synthesizer produces, what the PyTFHE assembler
// encodes (see internal/asm), and what every backend executes. Node indices
// follow the paper's sequential naming scheme: index 0 is reserved (the
// header slot of the binary format), inputs occupy 1..NumInputs, and gate i
// has index NumInputs+1+i.
package circuit

import (
	"fmt"

	"pytfhe/internal/logic"
)

// NodeID names a node in the DAG. Valid node ids are positive; the two
// negative sentinels represent the boolean constants, which exist only
// during construction (the builder folds them away) and at output ports.
// Ids are 32-bit so a Gate is 16 bytes: every netlist is bounded by
// MaxNodeID nodes, far inside the type.
type NodeID int32

// MaxNodeID is the largest node id of any netlist: the one bound the
// Builder enforces as it emits nodes, Validate checks as the node count,
// and the program decoder checks on every id it reads. The Builder's CSE
// keys pack operand ids into 30-bit fields and its index holds gate
// positions in 32 bits, so neither can outgrow it.
const MaxNodeID = 1<<idBits - 1

const idBits = 30

// Constant sentinels. They never appear as gate operands in a built
// Netlist; they may appear in Outputs when an output is statically known.
const (
	Invalid    NodeID = 0
	ConstFalse NodeID = -1
	ConstTrue  NodeID = -2
)

// IsConst reports whether the id is one of the constant sentinels.
func (id NodeID) IsConst() bool { return id == ConstFalse || id == ConstTrue }

// Gate is one gate node: the truth table TT over its operands, read
// MSB-first (bit A<<1|B at arity 0 and 2, A<<2|B<<1|C at arity 3,
// logic.TT's convention). Arity 0 is a classic two-input gate whose table
// is its logic.Kind nibble (logic.TTOf); unary kinds (NOT, COPY) hold the
// same node in both operands, mirroring the binary encoding. Arity 2 or 3
// is a k-input LUT, which always costs exactly one programmable
// bootstrap, so a built netlist only holds LUT tables logic.PlanOf can
// separate — Validate enforces it.
type Gate struct {
	A, B, C NodeID   // C is read at arity 3 only
	TT      logic.TT // the gate's function
	Arity   uint8    // 0: classic 2-input gate; 2..3: k-input LUT
}

// IsLUT reports whether the gate is a multi-input LUT node.
func (g *Gate) IsLUT() bool { return g.Arity != 0 }

// Kind returns a classic gate's function in the two-input gate alphabet:
// its table, unmasked, so a table outside the alphabet stays out of it.
// It is meaningful at arity 0 only.
func (g *Gate) Kind() logic.Kind { return logic.Kind(g.TT) }

// NumOperands returns how many distinct operand slots the gate reads:
// always 2 for classic gates (unary kinds duplicate A into B), Arity for
// LUTs.
func (g *Gate) NumOperands() int {
	if g.Arity >= 2 {
		return int(g.Arity)
	}
	return 2
}

// Operand returns operand slot i (0 → A, 1 → B, 2 → C).
func (g *Gate) Operand(i int) NodeID {
	switch i {
	case 0:
		return g.A
	case 1:
		return g.B
	}
	return g.C
}

// NeedsBootstrap reports whether evaluating the gate homomorphically
// costs a bootstrap. LUT nodes always do — that is their whole point:
// one programmable bootstrap standing in for a cone of 2-input gates.
func (g *Gate) NeedsBootstrap() bool {
	return g.Arity != 0 || g.Kind().NeedsBootstrap()
}

// Eval applies the gate to cleartext operand values (vals[i] is the value
// of Operand(i); classic gates read the first two).
func (g *Gate) Eval(vals [logic.MaxLUTArity]bool) bool {
	return g.TT.EvalBits(vals[:g.NumOperands()]...)
}

// Netlist is an immutable gate-level program.
type Netlist struct {
	Name        string
	NumInputs   int
	Gates       []Gate
	Outputs     []NodeID
	InputNames  []string // len NumInputs (may be empty if unnamed)
	OutputNames []string // len(Outputs) (may be empty if unnamed)
}

// NumNodes returns the total number of nodes (inputs + gates).
func (nl *Netlist) NumNodes() int { return nl.NumInputs + len(nl.Gates) }

// GateID returns the node id of gate index i.
func (nl *Netlist) GateID(i int) NodeID { return NodeID(nl.NumInputs + 1 + i) }

// GateIndex returns the gate slice index for node id, or -1 if id names an
// input or constant.
func (nl *Netlist) GateIndex(id NodeID) int {
	i := int(id) - nl.NumInputs - 1
	if i < 0 || i >= len(nl.Gates) {
		return -1
	}
	return i
}

// IsInput reports whether id names a primary input.
func (nl *Netlist) IsInput(id NodeID) bool {
	return id >= 1 && int(id) <= nl.NumInputs
}

// Validate checks the structural invariants of a runnable netlist — the
// rules of check, shared with Lint — and returns the first error-severity
// violation: the netlist has at most MaxNodeID nodes, every gate reads only
// nodes with strictly smaller indices (topological order), no gate reads a
// constant sentinel, every LUT has a single-bootstrap plan, and every
// output names a valid node or constant.
func (nl *Netlist) Validate() error {
	var err error
	nl.check(func(sev Severity, _, format string, args ...any) bool {
		if sev != SevError {
			return true
		}
		err = fmt.Errorf("circuit: "+format, args...)
		return false
	})
	return err
}

// Evaluate runs the netlist on cleartext inputs, returning the output bits.
// It is the functional reference for every homomorphic backend.
func (nl *Netlist) Evaluate(inputs []bool) ([]bool, error) {
	if len(inputs) != nl.NumInputs {
		return nil, fmt.Errorf("circuit: %d inputs supplied, want %d", len(inputs), nl.NumInputs)
	}
	values := make([]bool, nl.NumNodes()+1)
	copy(values[1:], inputs)
	for i := range nl.Gates {
		g := &nl.Gates[i]
		var vals [logic.MaxLUTArity]bool
		for k := 0; k < g.NumOperands(); k++ {
			vals[k] = values[g.Operand(k)]
		}
		values[nl.GateID(i)] = g.Eval(vals)
	}
	outs := make([]bool, len(nl.Outputs))
	for i, id := range nl.Outputs {
		switch id {
		case ConstTrue:
			outs[i] = true
		case ConstFalse:
			outs[i] = false
		default:
			outs[i] = values[id]
		}
	}
	return outs, nil
}

// operandMax returns the largest of vals over g's operands: the per-node
// level or depth arrays below all propagate this way.
func operandMax(vals []int32, g *Gate) int32 {
	var m int32
	for k := 0; k < g.NumOperands(); k++ {
		m = max(m, vals[g.Operand(k)])
	}
	return m
}

// Levels partitions the gates into wavefronts: level L contains every gate
// whose operands are all inputs or gates of level < L. The slices hold gate
// indices (not node ids). This is the schedule structure of Algorithm 1,
// for the executors that walk it; ComputeStats only counts it.
func (nl *Netlist) Levels() [][]int {
	level := make([]int32, nl.NumNodes()+1) // inputs have level 0
	var levels [][]int
	for i := range nl.Gates {
		l := operandMax(level, &nl.Gates[i]) + 1
		level[nl.GateID(i)] = l
		for len(levels) < int(l) {
			levels = append(levels, nil)
		}
		levels[l-1] = append(levels[l-1], i)
	}
	return levels
}

// Depth returns the length of the critical path in bootstrapped gates:
// gates that bootstrap count 1, free gates (NOT) count 0.
func (nl *Netlist) Depth() int {
	depth := make([]int32, nl.NumNodes()+1)
	var deepest int32
	for i := range nl.Gates {
		g := &nl.Gates[i]
		d := operandMax(depth, g)
		if g.NeedsBootstrap() {
			d++
		}
		depth[nl.GateID(i)] = d
		deepest = max(deepest, d)
	}
	return int(deepest)
}

// Stats summarizes a netlist for reports and the gate-distribution figure.
type Stats struct {
	Inputs       int
	Outputs      int
	Gates        int
	Bootstrapped int                 // gates that cost a bootstrap (the paper's gate count)
	Free         int                 // NOT/COPY gates, linear on ciphertexts
	LUTs         int                 // multi-input LUT gates (each one bootstrap)
	LUTInputs    int                 // operand slots across LUT gates (absorption measure)
	Depth        int                 // critical path in bootstrapped gates
	Levels       int                 // wavefront count
	MaxWidth     int                 // widest wavefront
	ByKind       [logic.NumKinds]int // classic gates only; LUTs counted in LUTs
}

// ComputeStats gathers Stats in one pass over the gates. Depth and the
// wavefronts come from two per-node int32 arrays (bootstrap depth and
// level) and one gate count per level, so it allocates 8 bytes per node
// plus the level counts and never materializes Levels.
func (nl *Netlist) ComputeStats() Stats {
	s := Stats{
		Inputs:  nl.NumInputs,
		Outputs: len(nl.Outputs),
		Gates:   len(nl.Gates),
	}
	depth := make([]int32, nl.NumNodes()+1)
	level := make([]int32, nl.NumNodes()+1)
	var width []int32 // gates per level; width[l-1] for level l
	for i := range nl.Gates {
		g := &nl.Gates[i]
		if g.IsLUT() {
			s.LUTs++
			s.LUTInputs += int(g.Arity)
		} else {
			s.ByKind[g.Kind()]++
		}
		id := nl.GateID(i)
		d := operandMax(depth, g)
		if g.NeedsBootstrap() {
			s.Bootstrapped++
			d++
		} else {
			s.Free++
		}
		depth[id] = d
		s.Depth = max(s.Depth, int(d))
		l := operandMax(level, g) + 1
		level[id] = l
		if int(l) > len(width) {
			width = append(width, 0)
		}
		width[l-1]++
	}
	s.Levels = len(width)
	for _, w := range width {
		s.MaxWidth = max(s.MaxWidth, int(w))
	}
	return s
}

// FanOut returns, for every node id, how many gate operands and outputs
// read it. Index 0 is unused.
func (nl *Netlist) FanOut() []int32 {
	fan := make([]int32, nl.NumNodes()+1)
	for i := range nl.Gates {
		g := &nl.Gates[i]
		for k := 0; k < g.NumOperands(); k++ {
			fan[g.Operand(k)]++
		}
	}
	for _, out := range nl.Outputs {
		if out > 0 {
			fan[out]++
		}
	}
	return fan
}

// String returns a short human-readable summary.
func (nl *Netlist) String() string {
	return fmt.Sprintf("%s: %d inputs, %d gates, %d outputs", nl.Name, nl.NumInputs, len(nl.Gates), len(nl.Outputs))
}
