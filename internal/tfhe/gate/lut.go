package gate

import (
	"fmt"

	"pytfhe/internal/logic"
)

// Multi-input LUT gates: k boolean ciphertexts (k ≤ logic.MaxLUTArity)
// are combined with the bias and small integer weights of the table's
// logic.Plan, dropping the sum's phase into one of eight 1/8-wide torus
// cells, and a single programmable bootstrap reads the function value off
// the cell — one bootstrap where a cone of 2-input gates would cost
// several. Only tables logic.PlanOf separates are evaluable; the
// synthesizer never emits others.

// LUT evaluates dst = tt(ins[0], …, ins[arity-1]) homomorphically with
// one programmable bootstrap. dst may alias any input. The table must
// have a single-bootstrap plan (logic.PlanOf); infeasible tables are the
// synthesizer's job to decompose, not the kernel's.
//
//pytfhe:bootstraps
func (e *Engine) LUT(arity int, tt logic.TT, dst *Ciphertext, ins ...*Ciphertext) error {
	if len(ins) != arity {
		return fmt.Errorf("gate: LUT arity %d with %d operands", arity, len(ins))
	}
	if arity < 2 || arity > logic.MaxLUTArity {
		return fmt.Errorf("%w for a LUT of arity %d", ErrNoPlan, arity)
	}
	var x [logic.MaxLUTArity]*Ciphertext
	copy(x[:], ins)
	return e.Apply(Op{TT: tt, Arity: uint8(arity)}, dst, x[0], x[1], x[2])
}

// Op names one operation for Apply and the batch path: the truth table
// TT of arity Arity, in circuit.Gate's encoding — arity 0 is a classic
// 2-input gate whose table is its logic.Kind nibble, arity 2..3 a k-input
// LUT — so executors can describe any gate without importing the IR into
// this package.
type Op struct {
	TT    logic.TT
	Arity uint8
}

// Bootstraps reports whether the op has a bootstrap plan. Free kinds
// (constants, COPY, NOT) do not, and neither do malformed ops, which Apply
// and OpBatch reject with ErrNoPlan.
func (o Op) Bootstraps() bool {
	_, ok := logic.PlanOf(int(o.Arity), o.TT)
	return ok
}

// OpBatch evaluates a batch of bootstrapped ops, classic gates and LUTs
// alike, with one batched blind rotation. Member m reads operands a[m],
// b[m] and — for arity-3 LUTs — c[m]; other members ignore c[m] (which
// may be nil). Every member must bootstrap (Op.Bootstraps); per-member
// results are bit-exact with Apply on the same inputs. dst may alias any
// operand, of its own member or another's: every operand is folded into
// engine scratch before the first output is written.
//
//pytfhe:bootstraps
func (e *Engine) OpBatch(ops []Op, dst, a, b, c []*Ciphertext) error {
	n := len(ops)
	if len(dst) != n || len(a) != n || len(b) != n || len(c) != n {
		return fmt.Errorf("gate: batch length mismatch: ops=%d dst=%d a=%d b=%d c=%d",
			n, len(dst), len(a), len(b), len(c))
	}
	e.growBatch(n)
	for m, op := range ops {
		if err := e.prepare(m, op, a[m], b[m], c[m]); err != nil {
			return fmt.Errorf("gate: batch member %d: %w", m, err)
		}
	}
	return e.Eval.BootstrapMany(dst, e.btv[:n], e.btmp[:n], true)
}
