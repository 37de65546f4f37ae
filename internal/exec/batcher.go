package exec

import (
	"fmt"

	"pytfhe/internal/logic"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// Eval computes out = op(a, b, c) on eng now: a classic gate reads a and b,
// a k-input LUT its first k operands (c may be nil below arity 3). This
// file is the only place an executor calls the gate engine, so a new gate
// kind or LUT arity is handled here for netlists, plans and cluster shards
// alike.
func Eval(eng *gate.Engine, op gate.Op, out, a, b, c *lwe.Sample) error {
	if op.IsLUT() {
		ins := [logic.MaxLUTArity]*lwe.Sample{a, b, c}
		return eng.LUT(int(op.Arity), op.TT, out, ins[:op.Arity]...)
	}
	return eng.Binary(op.Kind, out, a, b)
}

// Batcher evaluates gate.Ops on one engine, grouping up to batch
// bootstrapped ops per kernel dispatch (batch ≤ 1: every op evaluates on
// its own, allocation-free). The plan interpreter feeds it, for local
// replay, pytfhed and cluster shards alike. A Batcher belongs to one
// goroutine.
type Batcher struct {
	eng   *gate.Engine
	batch int

	// Batches counts kernel dispatches; the owner reads and clears it.
	Batches int64

	// The pending batch, as the parallel arrays gate.Engine.OpBatch takes.
	ops  []gate.Op
	outs []*lwe.Sample
	avs  []*lwe.Sample
	bvs  []*lwe.Sample
	cvs  []*lwe.Sample
}

// NewBatcher returns a batcher on eng with the given batch limit.
func NewBatcher(eng *gate.Engine, batch int) *Batcher {
	return &Batcher{eng: eng, batch: batch}
}

// Pending reports how many ops wait in the partial batch.
func (bt *Batcher) Pending() int { return len(bt.ops) }

// Do computes out = op(a, b, c). Free ops — and every op at batch ≤ 1 —
// evaluate before Do returns. A bootstrapped op otherwise joins the pending
// batch (joined is true): its operands must stay untouched and out is
// final only once the batch has been dispatched, which Do does itself when
// the batch fills — Pending is 0 afterwards — and Flush does on demand.
//
//pytfhe:bootstraps
func (bt *Batcher) Do(op gate.Op, out, a, b, c *lwe.Sample) (joined bool, err error) {
	if op.Arity > logic.MaxLUTArity || !op.IsLUT() && op.Kind >= logic.NumKinds {
		// Shard instructions arrive off a socket, and the engine indexes by
		// kind and slices by arity.
		return false, fmt.Errorf("exec: no such gate (kind %d, arity %d)", op.Kind, op.Arity)
	}
	if bt.batch <= 1 || !(op.IsLUT() || op.Kind.NeedsBootstrap()) {
		return false, Eval(bt.eng, op, out, a, b, c)
	}
	bt.ops = append(bt.ops, op)
	bt.outs = append(bt.outs, out)
	bt.avs = append(bt.avs, a)
	bt.bvs = append(bt.bvs, b)
	bt.cvs = append(bt.cvs, c)
	if len(bt.ops) < bt.batch {
		return true, nil
	}
	return true, bt.Flush()
}

// Flush dispatches the pending batch, if any, as one kernel call. The batch
// is empty afterwards whether or not the dispatch failed.
//
//pytfhe:bootstraps
func (bt *Batcher) Flush() error {
	if len(bt.ops) == 0 {
		return nil
	}
	bt.Batches++
	err := bt.eng.OpBatch(bt.ops, bt.outs, bt.avs, bt.bvs, bt.cvs)
	bt.Drop()
	return err
}

// Drop empties the pending batch without evaluating it.
func (bt *Batcher) Drop() {
	bt.ops, bt.outs, bt.avs, bt.bvs, bt.cvs = bt.ops[:0], bt.outs[:0], bt.avs[:0], bt.bvs[:0], bt.cvs[:0]
}
