package synth

import (
	"fmt"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// LUTCluster greedily collapses fanout-free cones of gates into k-input
// LUT nodes (k ≤ logic.MaxLUTArity): every gate is annotated with the
// boolean function its cone computes over at most k live variables, the
// cone of an operand being absorbed only when the operand has exactly one
// consumer (and is not a netlist output), the merged support stays within
// k variables, and — at the full arity — the composed table has a
// single-bootstrap plan (logic.LUTFeasible). Absorbed interior gates are
// never emitted; each surviving root gate is emitted as one LUT over its
// cone's support, so a cone of b bootstrapped gates becomes exactly one
// programmable bootstrap and the pass never increases the bootstrap count.
//
// The pass is meant to run after the cleanup pipeline (const-fold,
// absorb-not, CSE, DCE — see LUTPasses): sharing discovered by CSE keeps
// multi-consumer nodes out of cones, and DCE has already removed the
// orphans that would otherwise inflate fanout counts.
func LUTCluster(nl *circuit.Netlist) (*circuit.Netlist, error) {
	// cone describes the function a node computes over its live support
	// (old-netlist node ids: inputs or non-absorbed gates), with the gate
	// count of the cone for greedy tie-breaking. Constants have an empty
	// support and tt bit 0 as their value; fresh variables are the
	// identity over themselves.
	type cone struct {
		vars  []circuit.NodeID
		tt    logic.TT
		gates int
	}
	freshCone := func(id circuit.NodeID) cone {
		return cone{vars: []circuit.NodeID{id}, tt: 0x2} // identity at arity 1
	}
	constCone := func(id circuit.NodeID) cone {
		if id == circuit.ConstTrue {
			return cone{tt: 0x1}
		}
		return cone{tt: 0x0}
	}

	// Fanout: number of distinct consumers (gates dedup their own operand
	// slots, so unary kinds with A == B count once) plus output references.
	fanout := make([]int32, nl.NumNodes()+1)
	isOutput := make([]bool, nl.NumNodes()+1)
	for i := range nl.Gates {
		g := &nl.Gates[i]
		var seen [logic.MaxLUTArity]circuit.NodeID
		ns := 0
		for k := 0; k < g.NumOperands(); k++ {
			op := g.Operand(k)
			if op.IsConst() {
				continue
			}
			dup := false
			for _, s := range seen[:ns] {
				if s == op {
					dup = true
					break
				}
			}
			if !dup {
				seen[ns] = op
				ns++
				fanout[op]++
			}
		}
	}
	for _, out := range nl.Outputs {
		if !out.IsConst() {
			fanout[out]++
			isOutput[out] = true
		}
	}

	ann := make(map[circuit.NodeID]cone, len(nl.Gates))
	absorbed := make([]bool, nl.NumNodes()+1)

	// operandCone returns the cone an operand contributes when absorb is
	// requested (and allowed) or the fresh/const fallback otherwise.
	operandCone := func(id circuit.NodeID, absorb bool) cone {
		if id.IsConst() {
			return constCone(id)
		}
		if absorb && nl.GateIndex(id) >= 0 && fanout[id] == 1 && !isOutput[id] {
			if c, ok := ann[id]; ok {
				return c
			}
		}
		return freshCone(id)
	}

	// evalCone evaluates a cone under assignment v to the merged support
	// (support[j]'s value is bit len(support)-1-j of v, MSB-first).
	evalCone := func(c cone, support []circuit.NodeID, v uint8) bool {
		var idx uint8
		for _, cv := range c.vars {
			idx <<= 1
			for j, s := range support {
				if s == cv {
					idx |= v >> (len(support) - 1 - j) & 1
					break
				}
			}
		}
		return c.tt.Eval(idx)
	}

	for i := range nl.Gates {
		g := &nl.Gates[i]
		oldID := nl.GateID(i)
		nOps := g.NumOperands()

		// Candidate absorption masks, best first: everything, then single
		// operands by descending cone size, then nothing. The first
		// candidate whose merged support fits (and, at full arity, whose
		// table is feasible) wins.
		var masks []uint8
		all := uint8(1<<nOps) - 1
		masks = append(masks, all)
		if nOps == 2 {
			a := operandCone(g.Operand(0), true)
			b := operandCone(g.Operand(1), true)
			if a.gates >= b.gates {
				masks = append(masks, 0b01, 0b10)
			} else {
				masks = append(masks, 0b10, 0b01)
			}
		}
		masks = append(masks, 0)

		var chosen cone
		var chosenMask uint8
		found := false
		for _, mask := range masks {
			ops := make([]cone, nOps)
			var support []circuit.NodeID
			gatesIn := 1
			ok := true
			for k := 0; k < nOps; k++ {
				ops[k] = operandCone(g.Operand(k), mask>>k&1 == 1)
				gatesIn += ops[k].gates
				for _, cv := range ops[k].vars {
					dup := false
					for _, s := range support {
						if s == cv {
							dup = true
							break
						}
					}
					if !dup {
						support = append(support, cv)
					}
				}
				if len(support) > logic.MaxLUTArity {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var tt logic.TT
			for v := uint8(0); v < 1<<len(support); v++ {
				var vals [logic.MaxLUTArity]bool
				for k := 0; k < nOps; k++ {
					vals[k] = evalCone(ops[k], support, v)
				}
				if g.Eval(vals) {
					tt |= 1 << v
				}
			}
			if len(support) == logic.MaxLUTArity && !logic.LUTFeasible(len(support), tt) {
				continue
			}
			chosen = cone{vars: support, tt: tt, gates: gatesIn}
			chosenMask = mask
			found = true
			break
		}
		if !found {
			// Unreachable: the empty mask always yields the gate's own
			// function over ≤ MaxLUTArity fresh variables, which is
			// feasible by netlist validation.
			return nil, fmt.Errorf("synth: lut-cluster: gate %d has no emit candidate", oldID)
		}
		for k := 0; k < nOps; k++ {
			if chosenMask>>k&1 == 1 {
				op := g.Operand(k)
				if !op.IsConst() && nl.GateIndex(op) >= 0 && fanout[op] == 1 && !isOutput[op] {
					if _, ok := ann[op]; ok {
						absorbed[op] = true
					}
				}
			}
		}
		ann[oldID] = chosen
	}

	// Emit: every non-absorbed gate becomes one LUT over its cone's
	// support (the builder reduces arity ≤ 2 to classic/free gates and
	// folds constants); absorbed interior gates vanish.
	r := newRebuilder(nl, circuit.AllOptimizations())
	for i := range nl.Gates {
		oldID := nl.GateID(i)
		if absorbed[oldID] {
			continue
		}
		c := ann[oldID]
		if len(c.vars) == 0 {
			r.remap[oldID] = r.b.Const(c.tt.Eval(0))
			continue
		}
		ops := make([]circuit.NodeID, len(c.vars))
		for k, v := range c.vars {
			ops[k] = r.mapped(v)
		}
		r.remap[oldID] = r.b.LUT(c.tt, ops...)
	}
	r.finishOutputs()
	out, err := r.b.Build()
	if err != nil {
		return nil, err
	}
	return DeadGateElimination(out)
}
