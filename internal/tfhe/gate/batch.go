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
	if n == 0 {
		return nil
	}
	e.growBatch(n)
	for m, kind := range kinds {
		if !kind.NeedsBootstrap() {
			return fmt.Errorf("gate: batch member %d: %v does not bootstrap", m, kind)
		}
		pl := plans[kind]
		e.btmp[m].NoiselessTrivial(pl.bias)
		e.btmp[m].AddMulTo(pl.ca, a[m])
		e.btmp[m].AddMulTo(pl.cb, b[m])
	}
	return e.Eval.BootstrapBatch(dst, e.bmu[:n], e.btmp[:n])
}
