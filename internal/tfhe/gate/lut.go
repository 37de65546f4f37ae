package gate

import (
	"fmt"

	"pytfhe/internal/logic"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
)

// Multi-input LUT gates: k boolean ciphertexts (k ≤ logic.MaxLUTArity)
// are combined with the small integer weights of the table's
// logic.LUTPlan, dropping the sum's phase onto one of logic.LUTMsize
// torus cells, and a single programmable bootstrap reads the function
// value off the cell — one bootstrap where a cone of 2-input gates would
// cost several. Only tables logic.SolveLUT separates are evaluable; the
// synthesizer never emits others.

// lutTestVector returns the programmable-bootstrap test function of a
// plan: cell m encrypts +1/8 when the plan marks it true, -1/8 otherwise.
func lutTestVector(plan logic.LUTPlan) boot.LUT {
	cells := plan.Cells
	return func(m int) torus.Torus32 {
		if cells[m] > 0 {
			return mu18
		}
		return -mu18
	}
}

// LUT evaluates dst = tt(ins[0], …, ins[arity-1]) homomorphically with
// one programmable bootstrap. dst may alias any input. The table must
// have a single-bootstrap plan (logic.SolveLUT); infeasible tables are
// the synthesizer's job to decompose, not the kernel's.
func (e *Engine) LUT(arity int, tt logic.TT, dst *Ciphertext, ins ...*Ciphertext) error {
	if len(ins) != arity {
		return fmt.Errorf("gate: LUT arity %d with %d operands", arity, len(ins))
	}
	plan, ok := logic.SolveLUT(arity, tt)
	if !ok {
		return fmt.Errorf("gate: LUT table %#x has no single-bootstrap plan at arity %d", tt, arity)
	}
	e.tmp.NoiselessTrivial(0)
	for i := 0; i < arity; i++ {
		e.tmp.AddMulTo(plan.Weights[i], ins[i])
	}
	return e.Eval.BootstrapLUT(dst, lutTestVector(plan), logic.LUTMsize, e.tmp)
}

// Op names one bootstrapped operation for the mixed batch path: a classic
// 2-input gate (Arity 0, function in Kind) or a k-input LUT (Arity 2..3,
// function in TT). The field meanings mirror circuit.Gate so executors
// can describe either without importing the IR into this package.
type Op struct {
	Kind  logic.Kind
	TT    logic.TT
	Arity uint8
}

// IsLUT reports whether the op is a multi-input LUT.
func (o Op) IsLUT() bool { return o.Arity != 0 }

// OpBatch evaluates a mixed batch of bootstrapped classic gates and LUT
// gates with one batched blind rotation. Member m reads operands a[m],
// b[m] and — for arity-3 LUTs — c[m]; other members ignore c[m] (which
// may be nil). Classic members must bootstrap, exactly as in BinaryBatch;
// per-member results are bit-exact with Binary / LUT on the same inputs.
// dst may alias any operand, as in BinaryBatch.
func (e *Engine) OpBatch(ops []Op, dst, a, b, c []*Ciphertext) error {
	n := len(ops)
	if len(dst) != n || len(a) != n || len(b) != n || len(c) != n {
		return fmt.Errorf("gate: batch length mismatch: ops=%d dst=%d a=%d b=%d c=%d",
			n, len(dst), len(a), len(b), len(c))
	}
	if n == 0 {
		return nil
	}
	e.growBatch(n)
	hasLUT := false
	for m, op := range ops {
		if op.IsLUT() {
			plan, ok := logic.SolveLUT(int(op.Arity), op.TT)
			if !ok {
				return fmt.Errorf("gate: batch member %d: LUT table %#x has no plan at arity %d", m, op.TT, op.Arity)
			}
			e.btmp[m].NoiselessTrivial(0)
			e.btmp[m].AddMulTo(plan.Weights[0], a[m])
			e.btmp[m].AddMulTo(plan.Weights[1], b[m])
			if op.Arity >= 3 {
				if c[m] == nil {
					return fmt.Errorf("gate: batch member %d: arity-3 LUT with nil third operand", m)
				}
				e.btmp[m].AddMulTo(plan.Weights[2], c[m])
			}
			e.bluts[m] = lutTestVector(plan)
			hasLUT = true
			continue
		}
		if !op.Kind.NeedsBootstrap() {
			return fmt.Errorf("gate: batch member %d: %v does not bootstrap", m, op.Kind)
		}
		pl := plans[op.Kind]
		e.btmp[m].NoiselessTrivial(pl.bias)
		e.btmp[m].AddMulTo(pl.ca, a[m])
		e.btmp[m].AddMulTo(pl.cb, b[m])
		e.bluts[m] = nil
	}
	if !hasLUT {
		return e.Eval.BootstrapBatch(dst, e.bmu[:n], e.btmp[:n])
	}
	return e.Eval.BootstrapMixedBatch(dst, e.bmu[:n], e.bluts[:n], logic.LUTMsize, e.btmp[:n])
}

// growBatch sizes the per-member batch scratch.
func (e *Engine) growBatch(n int) {
	for len(e.btmp) < n {
		e.btmp = append(e.btmp, lwe.NewSample(e.p.LWEDimension))
		e.bmu = append(e.bmu, mu18)
	}
	for len(e.bluts) < n {
		e.bluts = append(e.bluts, nil)
	}
}
