// Package synth is the netlist optimization pipeline of PyTFHE — the role
// Yosys plays in the paper's flow. It rewrites gate-level netlists produced
// by any frontend: dead-gate elimination, global common-subexpression
// elimination, inverter absorption (free input negation in the TFHE gate
// alphabet), constant propagation, and a final compaction/renumbering pass
// that restores the sequential index scheme of the binary format.
//
// Each pass is exposed individually so the benchmark harness can ablate
// them; Optimize runs the standard pipeline to a fixed point.
package synth

import (
	"fmt"

	"pytfhe/internal/circuit"
)

// Pass is a single netlist-to-netlist rewrite. Passes must preserve
// functional equivalence.
type Pass struct {
	Name string
	Run  func(*circuit.Netlist) (*circuit.Netlist, error)
}

// StandardPasses returns the default pipeline in application order.
func StandardPasses() []Pass { return standardPasses(CSE) }

func standardPasses(cse func(*circuit.Netlist) (*circuit.Netlist, error)) []Pass {
	return []Pass{
		{Name: "const-fold", Run: ConstFold},
		{Name: "absorb-not", Run: AbsorbInverters},
		{Name: "cse", Run: cse},
		{Name: "dce", Run: DeadGateElimination},
	}
}

// LUTPasses returns the standard pipeline with the lut-cluster pass
// appended: cleanup first (const-fold, absorb-not, CSE, DCE), then cone
// clustering into k-input LUTs over the tidied netlist.
func LUTPasses() []Pass {
	return append(StandardPasses(), Pass{Name: "lut-cluster", Run: LUTCluster})
}

// PassDelta records the effect of one pass application on the netlist,
// in pipeline order (Iteration counts fixed-point rounds from zero).
type PassDelta struct {
	Iteration   int
	Pass        string
	GatesBefore int
	GatesAfter  int
	LUTsAfter   int
}

// Result records what a pipeline run did.
type Result struct {
	Netlist    *circuit.Netlist
	Iterations int
	GatesIn    int
	GatesOut   int
	Deltas     []PassDelta // one entry per pass application
}

// Optimize runs the standard pipeline to its fixed point, for at most 8
// rounds. It stops after a round that did not shrink the netlist, as
// OptimizeWith does, and also after a round whose cse replay fired no
// builder rule (Builder.Rewrites is zero: every gate was emitted as given
// or merged with an equal one). Such a round is provably final, so the
// netlist is the one OptimizeWith(nl, StandardPasses(), 8) returns, one
// confirming round sooner:
//
//   - const-fold and absorb-not output is closed under their own rules:
//     it has no constant operand, and no gate reads a NOT;
//   - a cse replay that fired no rule found no constant operand, no
//     same-input pair and no degenerate or non-canonical kind, and its
//     merges create none of these: a gate merges only with an equal one,
//     so a NOT operand stays a NOT operand and any same-input pair a
//     merge creates shows up in the same replay;
//   - dce removes gates and renumbers the rest monotonically, which
//     keeps every operand order and enables no rule.
//
// So the next round's const-fold, absorb-not and cse replays fire nothing
// and merge nothing, and its dce finds nothing dead: it is the identity.
//
// Optimize remembers the fingerprints of the netlists it returns after such
// a final round in a small process-wide set. Given one of them again (the
// frontends optimize, and core.Compile optimizes their output), it returns
// the input with zero rounds: gate for gate what the identity round would
// return. OptimizeLUT and OptimizeWith neither consult nor fill the set.
func Optimize(nl *circuit.Netlist) (*Result, error) {
	if fixedPoints.has(fixedPoints.fingerprint(nl)) {
		return &Result{Netlist: nl, GatesIn: len(nl.Gates), GatesOut: len(nl.Gates)}, nil
	}
	rewrites := 0
	cse := func(nl *circuit.Netlist) (*circuit.Netlist, error) {
		r := newRebuilder(nl, cseOptions)
		out, err := r.replayAll()
		rewrites = r.b.Rewrites()
		return out, err
	}
	res, fixed, err := optimize(nl, standardPasses(cse), 8, func() bool { return rewrites == 0 })
	if fixed {
		fixedPoints.add(fixedPoints.fingerprint(res.Netlist))
	}
	return res, err
}

// OptimizeLUT runs the standard pipeline plus lut-cluster to a fixed point.
func OptimizeLUT(nl *circuit.Netlist) (*Result, error) {
	return OptimizeWith(nl, LUTPasses(), 8)
}

// OptimizeWith runs the given passes repeatedly until the gate count stops
// improving (or maxIter rounds, whichever first).
func OptimizeWith(nl *circuit.Netlist, passes []Pass, maxIter int) (*Result, error) {
	res, _, err := optimize(nl, passes, maxIter, func() bool { return false })
	return res, err
}

// optimize is OptimizeWith that also stops after a round for which final
// reports true, and then reports fixed.
func optimize(nl *circuit.Netlist, passes []Pass, maxIter int, final func() bool) (res *Result, fixed bool, err error) {
	res = &Result{Netlist: nl, GatesIn: len(nl.Gates)}
	for iter := 0; iter < maxIter; iter++ {
		before := len(res.Netlist.Gates)
		for _, p := range passes {
			nGatesBefore := len(res.Netlist.Gates)
			out, err := p.Run(res.Netlist)
			if err != nil {
				return nil, false, fmt.Errorf("synth: pass %s: %w", p.Name, err)
			}
			res.Netlist = out
			luts := 0
			for i := range out.Gates {
				if out.Gates[i].IsLUT() {
					luts++
				}
			}
			res.Deltas = append(res.Deltas, PassDelta{
				Iteration:   iter,
				Pass:        p.Name,
				GatesBefore: nGatesBefore,
				GatesAfter:  len(out.Gates),
				LUTsAfter:   luts,
			})
		}
		res.Iterations++
		if fixed = final(); fixed || len(res.Netlist.Gates) >= before {
			break
		}
	}
	res.GatesOut = len(res.Netlist.Gates)
	return res, fixed, nil
}

// rebuilder replays a netlist through a fresh optimizing or literal builder
// while remapping node ids. It is the shared machinery of all passes.
type rebuilder struct {
	src     *circuit.Netlist
	b       *circuit.Builder
	remap   []circuit.NodeID // old node id -> new node id (or const sentinel)
	inputID []circuit.NodeID
}

func newRebuilder(src *circuit.Netlist, opts circuit.BuilderOptions) *rebuilder {
	r := &rebuilder{
		src:   src,
		b:     circuit.NewBuilder(src.Name, opts),
		remap: make([]circuit.NodeID, src.NumNodes()+1),
	}
	// A pass never emits more gates than it replays, so reserving the
	// source's count up front means the replay never regrows.
	r.b.Grow(len(src.Gates))
	for i := 0; i < src.NumInputs; i++ {
		name := fmt.Sprintf("in[%d]", i)
		if src.InputNames != nil {
			name = src.InputNames[i]
		}
		r.remap[i+1] = r.b.Input(name)
	}
	return r
}

func (r *rebuilder) mapped(id circuit.NodeID) circuit.NodeID {
	if id.IsConst() {
		return id
	}
	return r.remap[id]
}

// replayGate re-emits one source gate through the builder with remapped
// operands; LUT nodes replay through Builder.LUT so every pass preserves
// them (with the builder's own table simplifications applied).
func (r *rebuilder) replayGate(g *circuit.Gate) circuit.NodeID {
	if g.IsLUT() {
		ops := make([]circuit.NodeID, g.NumOperands())
		for k := range ops {
			ops[k] = r.mapped(g.Operand(k))
		}
		return r.b.LUT(g.TT, ops...)
	}
	return r.b.Gate(g.Kind(), r.mapped(g.A), r.mapped(g.B))
}

// replayAll replays every gate through the builder (which applies its own
// optimizations) and registers outputs.
func (r *rebuilder) replayAll() (*circuit.Netlist, error) {
	for i := range r.src.Gates {
		id := r.src.GateID(i)
		r.remap[id] = r.replayGate(&r.src.Gates[i])
	}
	r.finishOutputs()
	return r.b.Build()
}

func (r *rebuilder) finishOutputs() {
	for i, out := range r.src.Outputs {
		name := fmt.Sprintf("out[%d]", i)
		if r.src.OutputNames != nil {
			name = r.src.OutputNames[i]
		}
		r.b.Output(name, r.mapped(out))
	}
}

// ConstFold propagates constants through the netlist: any gate whose
// operands are (transitively) constant collapses, and gates with one
// constant operand specialize to cheaper forms.
func ConstFold(nl *circuit.Netlist) (*circuit.Netlist, error) {
	r := newRebuilder(nl, circuit.BuilderOptions{ConstFold: true, SameInput: true})
	return r.replayAll()
}

// cseOptions are the builder options of the CSE pass.
var cseOptions = circuit.BuilderOptions{CSE: true, ConstFold: true, SameInput: true}

// CSE performs global common-subexpression elimination with commutative
// normalization: structurally identical gates merge into one.
func CSE(nl *circuit.Netlist) (*circuit.Netlist, error) {
	return newRebuilder(nl, cseOptions).replayAll()
}

// AbsorbInverters rewrites consumers of NOT gates to negate the
// corresponding input in their truth table instead, since input negation is
// free in the TFHE gate alphabet. Orphaned NOT gates are left for DCE.
func AbsorbInverters(nl *circuit.Netlist) (*circuit.Netlist, error) {
	r := newRebuilder(nl, circuit.BuilderOptions{PushNot: true, ConstFold: true, SameInput: true})
	return r.replayAll()
}

// DeadGateElimination removes every gate not transitively reachable from an
// output, then renumbers the survivors into the compact sequential scheme.
func DeadGateElimination(nl *circuit.Netlist) (*circuit.Netlist, error) {
	live := make([]bool, nl.NumNodes()+1)
	var mark func(id circuit.NodeID)
	stack := make([]circuit.NodeID, 0, len(nl.Gates))
	mark = func(id circuit.NodeID) {
		if id <= 0 || live[id] {
			return
		}
		live[id] = true
		stack = append(stack, id)
	}
	for _, out := range nl.Outputs {
		mark(out)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if gi := nl.GateIndex(id); gi >= 0 {
			g := &nl.Gates[gi]
			for k := 0; k < g.NumOperands(); k++ {
				mark(g.Operand(k))
			}
		}
	}

	// Rebuild keeping only live gates, verbatim (no extra rewriting).
	r := newRebuilder(nl, circuit.NoOptimizations())
	for i := range nl.Gates {
		id := nl.GateID(i)
		if !live[id] {
			continue
		}
		r.remap[id] = r.replayGate(&nl.Gates[i])
	}
	r.finishOutputs()
	return r.b.Build()
}
