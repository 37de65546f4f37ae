package synth

import (
	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// Resynthesize performs cut-size-2 rewriting: for every gate whose
// transitive support (within the window) spans at most two nodes, the
// entire subtree collapses into a single gate with the composed truth
// table. This is the classic local resynthesis that turns an AND/OR/NOT
// expansion like
//
//	OR(AND(a, NOT b), AND(NOT a, b))
//
// back into one XOR gate — the inverse of the Transpiler IR's restricted
// alphabet, and the optimization that makes executing HLS-generated
// netlists on the rich TFHE gate set profitable.
//
// The pass never increases the gate count: rewritten subtree roots become
// single gates and orphaned interior gates fall to the next DCE.
func Resynthesize(nl *circuit.Netlist) (*circuit.Netlist, error) {
	r := newRebuilder(nl, circuit.AllOptimizations())

	// ann[id] holds the local-function annotation of node id (in *new*
	// node-id space): a support of zero, one or two new nodes and the
	// truth table over them. Nodes with wider support act as fresh
	// variables; constants are zero-variable annotations.
	type annotation struct {
		vars [2]circuit.NodeID // unused slots are 0
		tt   logic.Kind
	}
	ann := map[circuit.NodeID]annotation{}

	fresh := func(id circuit.NodeID) annotation {
		return annotation{vars: [2]circuit.NodeID{id, 0}, tt: logic.COPY}
	}
	constAnn := func(id circuit.NodeID) annotation {
		tt := logic.False
		if id == circuit.ConstTrue {
			tt = logic.True
		}
		return annotation{tt: tt}
	}
	for i := 1; i <= nl.NumInputs; i++ {
		newID := r.remap[circuit.NodeID(i)]
		ann[newID] = fresh(newID)
	}

	// evalAnn evaluates an annotation under an assignment to the merged
	// support (s0, s1).
	evalAnn := func(a annotation, s0, s1 circuit.NodeID, v0, v1 bool) bool {
		x := v0
		if a.vars[0] == s1 {
			x = v1
		}
		y := false
		if a.vars[1] != 0 {
			y = v0
			if a.vars[1] == s1 {
				y = v1
			}
		}
		return a.tt.Eval(x, y)
	}

	for i := range nl.Gates {
		g := &nl.Gates[i]
		oldID := nl.GateID(i)
		if g.IsLUT() {
			// Multi-input LUT nodes are opaque to the 2-variable
			// annotation machinery: replay them and let the result act
			// as a fresh variable (LUTCluster is the pass that rewrites
			// cones around LUTs).
			newID := r.replayGate(g)
			r.remap[oldID] = newID
			if !newID.IsConst() {
				if _, ok := ann[newID]; !ok {
					ann[newID] = fresh(newID)
				}
			}
			continue
		}
		na := r.mapped(g.A)
		nb := r.mapped(g.B)
		lookup := func(id circuit.NodeID) annotation {
			if id.IsConst() {
				return constAnn(id)
			}
			if a, ok := ann[id]; ok {
				return a
			}
			a := fresh(id)
			ann[id] = a
			return a
		}
		aa := lookup(na)
		ab := lookup(nb)

		// Merge supports.
		var support []circuit.NodeID
		addVar := func(v circuit.NodeID) {
			if v == 0 {
				return
			}
			for _, s := range support {
				if s == v {
					return
				}
			}
			support = append(support, v)
		}
		addVar(aa.vars[0])
		addVar(aa.vars[1])
		addVar(ab.vars[0])
		addVar(ab.vars[1])

		if len(support) > 2 {
			// Too wide: emit the gate as-is; the result is a fresh var.
			newID := r.b.Gate(g.Kind(), na, nb)
			r.remap[oldID] = newID
			if !newID.IsConst() {
				if _, ok := ann[newID]; !ok {
					ann[newID] = fresh(newID)
				}
			}
			continue
		}

		var s0, s1 circuit.NodeID
		if len(support) > 0 {
			s0 = support[0]
		}
		if len(support) == 2 {
			s1 = support[1]
		}
		// Compose the truth table of this gate over (s0, s1).
		var tt logic.Kind
		for bitsIdx := 0; bitsIdx < 4; bitsIdx++ {
			v0 := bitsIdx&2 != 0
			v1 := bitsIdx&1 != 0
			if g.Kind().Eval(evalAnn(aa, s0, s1, v0, v1), evalAnn(ab, s0, s1, v0, v1)) {
				tt |= 1 << uint(bitsIdx)
			}
		}
		// Emit a single gate computing tt(s0, s1). The builder folds
		// constants/projections automatically.
		if len(support) == 0 {
			r.remap[oldID] = r.b.Const(tt.ConstValue())
			continue
		}
		operandB := s1
		if operandB == 0 {
			operandB = s0
		}
		newID := r.b.Gate(tt, s0, operandB)
		r.remap[oldID] = newID
		if !newID.IsConst() {
			ann[newID] = annotation{vars: [2]circuit.NodeID{s0, s1}, tt: tt}
			if newID == s0 || newID == s1 {
				// Folded to a projection of an existing node: keep the
				// existing annotation.
				ann[newID] = fresh(newID)
			}
		}
	}
	r.finishOutputs()
	out, err := r.b.Build()
	if err != nil {
		return nil, err
	}
	// Orphaned interior gates are garbage now.
	return DeadGateElimination(out)
}
