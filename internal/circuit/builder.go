package circuit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"pytfhe/internal/logic"
)

// BuilderOptions control which local optimizations the builder applies as
// gates are created. The PyTFHE frontend enables everything; the baseline
// framework models (Cingulata, E3, Transpiler) disable some or all of them
// to reproduce their larger netlists.
type BuilderOptions struct {
	// ConstFold evaluates gates whose operands are known constants and
	// specializes gates with one constant operand.
	ConstFold bool
	// CSE hash-conses structurally identical gates (after commutative
	// normalization) so each distinct function is computed once.
	CSE bool
	// PushNot absorbs NOT gates into their consumers by rewriting the
	// consumer's truth table, exploiting that input negation is free in
	// the TFHE gate alphabet.
	PushNot bool
	// SameInput simplifies gates whose two operands are the same node.
	SameInput bool
}

// AllOptimizations returns the options used by the PyTFHE frontend.
func AllOptimizations() BuilderOptions {
	return BuilderOptions{ConstFold: true, CSE: true, PushNot: true, SameInput: true}
}

// NoOptimizations returns options that emit gates exactly as requested.
func NoOptimizations() BuilderOptions {
	return BuilderOptions{}
}

// ErrTooManyNodes is the panic value of a Builder asked to create a node
// beyond MaxNodeID.
var ErrTooManyNodes = errors.New("circuit: netlist exceeds the builder's node-id bound")

// gateKey is what the CSE index hashes for a classic gate: the 4-bit kind
// above two 30-bit operand ids, one word. It is exact because Gate only
// accepts kinds of the 16-function alphabet and the builder never names a
// node past MaxNodeID.
type gateKey uint64

func newGateKey(kind logic.Kind, a, b NodeID) gateKey {
	return gateKey(uint64(kind)<<(2*idBits) | uint64(a)<<idBits | uint64(b))
}

// lutKey is what the CSE index hashes for a LUT gate: operands A and B
// packed like gateKey's, then C above the 8-bit table. Two words.
type lutKey struct {
	ab, ctt uint64
}

func newLUTKey(tt logic.TT, ops []NodeID) lutKey {
	return lutKey{
		ab:  uint64(ops[0])<<idBits | uint64(ops[1]),
		ctt: uint64(ops[2])<<8 | uint64(tt),
	}
}

// Builder constructs a Netlist incrementally. All nodes must be created
// through the builder so topological order holds by construction.
//
// With CSE on, the builder hash-conses classic and LUT gates in one Index
// of gate positions: a candidate is confirmed against the gate it names, so
// the table stores no keys. Grow reserves room when the caller knows
// roughly how many gates are coming.
//
// The builder counts the simplification rules that fire (Rewrites): every
// constant fold, same-input or degenerate-kind reduction, COPY elimination,
// absorbed or cancelled inverter, unary-form normalization and LUT support
// reduction or decomposition. Commutative reordering and CSE merges are not
// rewrites; they only pick the canonical form of a gate that is emitted
// anyway.
type Builder struct {
	name        string
	opts        BuilderOptions
	numInputs   int
	inputNames  []string
	gates       []Gate
	outputs     []NodeID
	outputNames []string
	cse         Index // gate positions, with CSE on
	rewrites    int
}

// NewBuilder returns a builder with the given options.
func NewBuilder(name string, opts BuilderOptions) *Builder {
	b := &Builder{name: name, opts: opts}
	if opts.CSE {
		b.cse = NewIndex(0)
	}
	return b
}

// Grow reserves room for n more gates: in the gate slice and, when CSE is
// on, in the CSE index, so emitting them neither copies the gates nor
// regrows the index. It is a capacity hint only; the netlist built is the
// same with or without it, and an index that was not reserved doubles as
// it fills.
func (b *Builder) Grow(n int) {
	if n <= 0 {
		return
	}
	b.gates = slices.Grow(b.gates, n)
	if b.opts.CSE {
		b.cse.Reserve(n)
	}
}

// Rewrites returns how many simplification rules have fired so far (see
// Builder). A replay through a builder that reports zero emitted every
// gate as given, up to operand order, or merged it with an equal one.
func (b *Builder) Rewrites() int { return b.rewrites }

// Input adds a named primary input and returns its node id. Inputs must be
// created before any gate that reads them; creating inputs later is legal
// but they receive higher indices than existing gates only in the final
// renumbering, so the builder simply forbids it to keep ids stable.
func (b *Builder) Input(name string) NodeID {
	if len(b.gates) > 0 {
		panic("circuit: all inputs must be declared before the first gate")
	}
	if b.numInputs >= MaxNodeID {
		panic(ErrTooManyNodes)
	}
	b.numInputs++
	b.inputNames = append(b.inputNames, name)
	return NodeID(b.numInputs)
}

// Inputs declares n inputs named prefix[0..n-1].
func (b *Builder) Inputs(prefix string, n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = b.Input(fmt.Sprintf("%s[%d]", prefix, i))
	}
	return ids
}

// Const returns the constant node for v.
func (b *Builder) Const(v bool) NodeID {
	if v {
		return ConstTrue
	}
	return ConstFalse
}

func constVal(id NodeID) bool { return id == ConstTrue }

// notOperand returns (x, true) when id is a NOT gate over x.
func (b *Builder) notOperand(id NodeID) (NodeID, bool) {
	gi := int(id) - b.numInputs - 1
	if gi < 0 || gi >= len(b.gates) {
		return 0, false
	}
	g := &b.gates[gi]
	if g.Arity == 0 && g.Kind() == logic.NOT {
		return g.A, true
	}
	return 0, false
}

// Gate creates (or reuses) a gate computing kind(a, b) and returns its node
// id. Operands may be constants; with ConstFold enabled the gate is
// specialized or eliminated, otherwise constants are materialized as
// TRUE/FALSE-producing gates over input 1 (matching what gate-level
// baselines without constant propagation emit). kind must be one of the
// logic.NumKinds functions of the gate alphabet.
func (b *Builder) Gate(kind logic.Kind, a, bb NodeID) NodeID {
	if kind >= logic.NumKinds {
		panic(fmt.Sprintf("circuit: gate kind %d outside the gate alphabet", kind))
	}
	if b.opts.ConstFold {
		if a.IsConst() && bb.IsConst() {
			b.rewrites++
			return b.Const(kind.Eval(constVal(a), constVal(bb)))
		}
		if a.IsConst() || bb.IsConst() {
			b.rewrites++
		}
		if a.IsConst() {
			// Restrict the truth table to f(const, b).
			if constVal(a) {
				kind = (kind >> 2) & 3 // rows a=1
			} else {
				kind = kind & 3 // rows a=0
			}
			kind |= kind << 2 // ignore a
			a = bb
		} else if bb.IsConst() {
			if constVal(bb) {
				kind = (kind >> 1) & 5 // columns b=1: bits 1,3 -> 0,2
			} else {
				kind = kind & 5 // columns b=0: bits 0,2
			}
			kind |= kind << 1 // ignore b
			bb = a
		}
		// Degenerate kinds after specialization.
		if kind.IsConst() {
			b.rewrites++
			return b.Const(kind.ConstValue())
		}
		switch kind {
		case logic.COPY:
			b.rewrites++
			return a
		case logic.COPYB:
			b.rewrites++
			return bb
		}
	}
	if a.IsConst() || bb.IsConst() {
		// No constant folding: materialize the constant as a gate so the
		// netlist stays within the binary format (which has no immediate
		// operands). TRUE = XNOR(x,x), FALSE = XOR(x,x).
		b.rewrites++
		if a.IsConst() {
			a = b.materializeConst(constVal(a), bb)
		}
		if bb.IsConst() {
			bb = b.materializeConst(constVal(bb), a)
		}
	}

	if b.opts.SameInput && a == bb && kind != logic.NOT {
		// f(x, x): truth table restricted to the diagonal. (A NOT already
		// has its operand in both slots; its diagonal is itself.)
		b.rewrites++
		f00 := kind.Eval(false, false)
		f11 := kind.Eval(true, true)
		switch {
		case !f00 && !f11:
			return b.Const(false)
		case f00 && f11:
			return b.Const(true)
		case f11: // identity
			return a
		default: // negation
			kind = logic.NOT
			bb = a
		}
	}

	if b.opts.PushNot && kind != logic.NOT && kind != logic.COPY {
		if x, ok := b.notOperand(a); ok {
			b.rewrites++
			kind = kind.NegateA()
			a = x
		}
		if x, ok := b.notOperand(bb); ok {
			b.rewrites++
			kind = kind.NegateB()
			bb = x
		}
		// The rewrite may have produced a degenerate kind.
		if b.opts.ConstFold {
			if kind.IsConst() {
				b.rewrites++
				return b.Const(kind.ConstValue())
			}
			switch kind {
			case logic.COPY:
				b.rewrites++
				return a
			case logic.COPYB:
				b.rewrites++
				return bb
			}
		}
	}

	// Normalize unary forms so NOT always has its operand in A.
	switch kind {
	case logic.NOTB:
		b.rewrites++
		kind, a = logic.NOT, bb
	case logic.COPYB:
		b.rewrites++
		kind, a = logic.COPY, bb
	}
	if kind == logic.NOT || kind == logic.COPY {
		if bb != a {
			b.rewrites++
			bb = a
		}
		if b.opts.ConstFold && kind == logic.COPY {
			b.rewrites++
			return a // a buffer computes nothing
		}
		if b.opts.PushNot && kind == logic.NOT {
			if x, ok := b.notOperand(a); ok {
				b.rewrites++
				return x // ¬¬x = x
			}
		}
	}

	// Commutative normalization for CSE: order operands of symmetric kinds.
	if b.opts.CSE {
		if kind.SwapInputs() == kind && bb < a {
			a, bb = bb, a
		} else if bb < a {
			// For asymmetric kinds, canonicalize by swapping both operands
			// and the truth table.
			kind = kind.SwapInputs()
			a, bb = bb, a
		}
		return b.cseEmit(kind, a, bb)
	}
	return b.emit(kind, a, bb)
}

// cseEmit returns the existing gate computing kind(a, bb), emitting it
// first if there is none.
func (b *Builder) cseEmit(kind logic.Kind, a, bb NodeID) NodeID {
	return b.hashCons(Gate{TT: logic.TTOf(kind), A: a, B: bb}, b.cse.HashWord(uint64(newGateKey(kind, a, bb))))
}

// hashCons returns the existing gate equal to g, pushing g first if there
// is none; h is the hash of g's key. Candidates are gate positions, each
// confirmed against the gate itself.
func (b *Builder) hashCons(g Gate, h uint64) NodeID {
	p := b.cse.Probe(h)
	for {
		i, ok := b.cse.Next(&p)
		if !ok {
			break
		}
		if b.gates[i] == g {
			return NodeID(b.numInputs + 1 + int(i))
		}
	}
	id := b.push(g)
	b.cse.Insert(&p, int32(len(b.gates)-1))
	return id
}

func (b *Builder) emit(kind logic.Kind, a, bb NodeID) NodeID {
	return b.push(Gate{TT: logic.TTOf(kind), A: a, B: bb})
}

// push appends a gate and returns its id. Every gate is created here, so
// this is where the node-id bound is enforced.
func (b *Builder) push(g Gate) NodeID {
	if b.numInputs+len(b.gates) >= MaxNodeID {
		panic(ErrTooManyNodes)
	}
	b.gates = append(b.gates, g)
	return NodeID(b.numInputs + len(b.gates))
}

// LUT creates a gate computing truth table tt over the operands (bit
// x₀·2^(k-1)|…|x₍k₋₁₎ of tt holds f(x₀,…,x₍k₋₁₎), MSB-first like
// logic.TT). Unlike Gate, the LUT path always simplifies regardless of
// BuilderOptions: constant operands fold into the table, duplicate and
// ignored operands are dropped, and tables of effective arity ≤ 2
// degenerate to classic gates (where the usual options then apply).
// Tables with no single-bootstrap plan (logic.SolveLUT) are decomposed by
// Shannon expansion into 2-input gates, so the builder never emits a LUT
// node Validate would reject.
func (b *Builder) LUT(tt logic.TT, ins ...NodeID) NodeID {
	arity := len(ins)
	if arity < 1 || arity > logic.MaxLUTArity {
		panic(fmt.Sprintf("circuit: LUT arity %d outside [1,%d]", arity, logic.MaxLUTArity))
	}
	if m := tt & logic.TTMask(arity); m != tt {
		b.rewrites++
		tt = m
	}
	ops := append([]NodeID(nil), ins...)

	// Reduce to minimal support: fold constants into the table, merge
	// duplicate operands, drop ignored ones, until stable.
	for changed := true; changed; {
		changed = false
		for i := 0; i < arity && !changed; i++ {
			if ops[i].IsConst() {
				tt = tt.Restrict(arity, i, constVal(ops[i]))
				ops = append(ops[:i], ops[i+1:]...)
				arity--
				changed = true
			}
		}
		for i := 0; i < arity && !changed; i++ {
			for j := i + 1; j < arity && !changed; j++ {
				if ops[i] == ops[j] {
					tt = tt.MergeDup(arity, i, j)
					ops = append(ops[:j], ops[j+1:]...)
					arity--
					changed = true
				}
			}
		}
		for i := 0; i < arity && !changed; i++ {
			if tt.IgnoresInput(arity, i) {
				tt = tt.DropInput(arity, i)
				ops = append(ops[:i], ops[i+1:]...)
				arity--
				changed = true
			}
		}
	}

	if arity < len(ins) || arity < 3 {
		b.rewrites++ // a reduced support, or a table that is no LUT node
	}
	switch arity {
	case 0:
		return b.Const(tt&1 == 1)
	case 1:
		switch tt & 3 {
		case 0:
			return b.Const(false)
		case 3:
			return b.Const(true)
		case 2: // f(x) = x
			return ops[0]
		default: // f(x) = ¬x
			return b.Not(ops[0])
		}
	case 2:
		return b.Gate(tt.Kind(), ops[0], ops[1])
	}

	if b.opts.PushNot {
		negated := false
		for i := 0; i < arity; i++ {
			if x, ok := b.notOperand(ops[i]); ok {
				b.rewrites++
				tt = tt.FlipInput(arity, i)
				ops[i] = x
				negated = true
			}
		}
		if negated {
			// Absorption may have created duplicates (x alongside ¬x):
			// restart the reduction from the top.
			for i := 0; i < arity; i++ {
				for j := i + 1; j < arity; j++ {
					if ops[i] == ops[j] {
						return b.LUT(tt, ops...)
					}
				}
			}
		}
	}

	if !logic.LUTFeasible(arity, tt) {
		// No single-bootstrap plan: Shannon-expand on the first operand.
		// Both cofactors are 2-input functions, recombined with a mux.
		b.rewrites++
		hi := b.LUT(tt.Restrict(arity, 0, true), ops[1], ops[2])
		lo := b.LUT(tt.Restrict(arity, 0, false), ops[1], ops[2])
		return b.Mux(ops[0], hi, lo)
	}

	if b.opts.CSE {
		// Canonicalize operand order (ids are distinct after reduction):
		// sort operands ascending and permute the table to match.
		perm := []int{0, 1, 2}
		for i := 0; i < arity; i++ {
			for j := i + 1; j < arity; j++ {
				if ops[perm[j]] < ops[perm[i]] {
					perm[i], perm[j] = perm[j], perm[i]
				}
			}
		}
		if perm[0] != 0 || perm[1] != 1 {
			tt = tt.Permute(arity, perm)
			ops = []NodeID{ops[perm[0]], ops[perm[1]], ops[perm[2]]}
		}
		key := newLUTKey(tt, ops)
		var kb [16]byte
		binary.LittleEndian.PutUint64(kb[:8], key.ab)
		binary.LittleEndian.PutUint64(kb[8:], key.ctt)
		return b.hashCons(lutGate(tt, ops), b.cse.HashBytes(kb[:]))
	}
	return b.push(lutGate(tt, ops))
}

func lutGate(tt logic.TT, ops []NodeID) Gate {
	return Gate{A: ops[0], B: ops[1], C: ops[2], TT: tt, Arity: uint8(len(ops))}
}

// materializeConst produces a node computing the constant v, anchored on an
// arbitrary existing node (or input 1 if none is supplied).
func (b *Builder) materializeConst(v bool, anchor NodeID) NodeID {
	if anchor <= 0 {
		if b.numInputs == 0 {
			panic("circuit: cannot materialize a constant in a netlist with no inputs")
		}
		anchor = 1
	}
	kind := logic.XOR // XOR(x,x) = 0
	if v {
		kind = logic.XNOR // XNOR(x,x) = 1
	}
	if b.opts.CSE {
		return b.cseEmit(kind, anchor, anchor)
	}
	return b.emit(kind, anchor, anchor)
}

// Convenience wrappers for the common gates.

// And returns a AND b.
func (b *Builder) And(x, y NodeID) NodeID { return b.Gate(logic.AND, x, y) }

// Or returns a OR b.
func (b *Builder) Or(x, y NodeID) NodeID { return b.Gate(logic.OR, x, y) }

// Xor returns a XOR b.
func (b *Builder) Xor(x, y NodeID) NodeID { return b.Gate(logic.XOR, x, y) }

// Nand returns NOT(a AND b).
func (b *Builder) Nand(x, y NodeID) NodeID { return b.Gate(logic.NAND, x, y) }

// Nor returns NOT(a OR b).
func (b *Builder) Nor(x, y NodeID) NodeID { return b.Gate(logic.NOR, x, y) }

// Xnor returns NOT(a XOR b).
func (b *Builder) Xnor(x, y NodeID) NodeID { return b.Gate(logic.XNOR, x, y) }

// Not returns NOT a.
func (b *Builder) Not(x NodeID) NodeID {
	if x.IsConst() {
		if b.opts.ConstFold {
			return b.Const(!constVal(x))
		}
		x = b.materializeConst(constVal(x), 0)
	}
	return b.Gate(logic.NOT, x, x)
}

// Mux returns sel ? t : f, lowered to the two-input alphabet:
// (t AND sel) OR (f AND NOT sel) — with the free-negation gate forms this
// costs three bootstrapped gates (ANDYN avoids the explicit NOT).
func (b *Builder) Mux(sel, t, f NodeID) NodeID {
	hi := b.Gate(logic.AND, t, sel)
	lo := b.Gate(logic.ANDYN, f, sel) // f AND NOT sel
	return b.Gate(logic.OR, hi, lo)
}

// Output registers a named output.
func (b *Builder) Output(name string, id NodeID) {
	b.outputs = append(b.outputs, id)
	b.outputNames = append(b.outputNames, name)
}

// OutputBus registers a named bus of outputs, LSB first.
func (b *Builder) OutputBus(prefix string, ids []NodeID) {
	for i, id := range ids {
		b.Output(fmt.Sprintf("%s[%d]", prefix, i), id)
	}
}

// NumGates returns the number of gates emitted so far.
func (b *Builder) NumGates() int { return len(b.gates) }

// Build finalizes the netlist. The builder remains usable afterwards. The
// netlist's gates share the builder's array without copying it: the builder
// only ever appends, past the netlist's capacity, so neither side sees the
// other's later changes unless the caller edits the netlist's gates in place.
func (b *Builder) Build() (*Netlist, error) {
	n := len(b.gates)
	nl := &Netlist{
		Name:        b.name,
		NumInputs:   b.numInputs,
		Gates:       b.gates[:n:n],
		Outputs:     append([]NodeID(nil), b.outputs...),
		InputNames:  append([]string(nil), b.inputNames...),
		OutputNames: append([]string(nil), b.outputNames...),
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

// MustBuild is Build for construction code paths that cannot produce
// invalid netlists (panics on error).
func (b *Builder) MustBuild() *Netlist {
	nl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return nl
}
