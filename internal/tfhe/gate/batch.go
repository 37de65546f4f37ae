package gate

import (
	"fmt"

	"pytfhe/internal/logic"
)

// BinaryBatch evaluates dst[m] = kinds[m](a[m], b[m]) for every member with
// one batched bootstrap dispatch: the per-gate linear combinations are formed
// up front and the whole batch runs through the evaluator's
// structure-of-arrays blind rotation, streaming the bootstrapping key once
// for all members. Every kind must bootstrap (logic.Kind.NeedsBootstrap);
// free gates are for the caller to evaluate inline via Binary — batching
// them would waste a kernel slot on a linear operation. Results are
// bit-exact with per-gate Binary on the same inputs. dst may alias any
// operand, of its own member or another's: every operand is folded into
// engine scratch before the first output is written.
//
//pytfhe:bootstraps
func (e *Engine) BinaryBatch(kinds []logic.Kind, dst, a, b []*Ciphertext) error {
	n := len(kinds)
	if len(dst) != n || len(a) != n || len(b) != n {
		return fmt.Errorf("gate: batch length mismatch: kinds=%d dst=%d a=%d b=%d",
			n, len(dst), len(a), len(b))
	}
	e.growBatch(n)
	for m, kind := range kinds {
		if err := e.prepare(m, Op{TT: logic.TTOf(kind)}, a[m], b[m], nil); err != nil {
			return fmt.Errorf("gate: batch member %d: %w", m, err)
		}
	}
	return e.Eval.BootstrapMany(dst, e.btv[:n], e.btmp[:n], true)
}
