package plan

import (
	"context"
	"fmt"
	"sync"

	"pytfhe/internal/exec"
	"pytfhe/internal/logic"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// Runtime holds the mutable replay state: the arena ciphertexts and the
// resolved value table. It persists across replays — of the same plan or,
// rebound, of any plan at the same LWE dimension — which is what makes the
// second and later runs allocation-free (output ciphertexts excepted — the
// caller owns those). A Runtime serves one replay at a time.
type Runtime struct {
	dim int
	// pool is the shared execution core's liveness arena: slots are bound
	// once per plan by the compile-time liveness analysis instead of
	// refcounted at runtime, and the arena's own accounting supplies the
	// high-water figure.
	pool *exec.Arena
	// vals is the ref-indexed value table: the first NumInputs entries are
	// the caller's input ciphertexts (rebound per replay), the rest are
	// arena slots allocated lazily the first time a level writes them.
	vals      []*lwe.Sample
	numInputs int

	// Batch occupancy of the most recent ReplayBatch.
	batches      int64
	batchedBoots int64
}

// BatchOccupancy reports the most recent ReplayBatch's dispatch count and
// the number of bootstrapped instructions those dispatches covered (both
// zero after an unbatched replay).
func (rt *Runtime) BatchOccupancy() (batches, batchedBootstraps int64) {
	return rt.batches, rt.batchedBoots
}

// NewRuntime returns a replay runtime allocating ciphertexts of the given
// LWE dimension.
func NewRuntime(dim int) *Runtime { return &Runtime{dim: dim, pool: exec.NewArena(dim)} }

// HighWater returns the largest number of arena ciphertexts this runtime
// has held live at once across all replays.
func (rt *Runtime) HighWater() int { return rt.pool.HighWater() }

// Reset releases every arena ciphertext back to the free list, for reuse
// when the runtime is rebound to a different plan.
func (rt *Runtime) Reset() {
	for i := rt.numInputs; i < len(rt.vals); i++ {
		rt.pool.Put(rt.vals[i])
		rt.vals[i] = nil
	}
	rt.vals = rt.vals[:0]
	rt.numInputs = 0
}

// Bind validates one run's inputs against p (count, non-nil, LWE
// dimension), sizes the value table to p's arena bound and installs the
// inputs. Pair it with Unbind.
func (rt *Runtime) Bind(p *Plan, inputs []*lwe.Sample) error {
	if err := exec.CheckRawInputs(inputs, p.NumInputs, rt.dim); err != nil {
		return err
	}
	if rt.numInputs != len(inputs) {
		// Input count changed (different plan): slots shift, start over.
		rt.Reset()
		rt.numInputs = len(inputs)
	}
	n := len(inputs) + p.stats.ArenaSlots
	for len(rt.vals) < n {
		rt.vals = append(rt.vals, nil)
	}
	copy(rt.vals, inputs)
	return nil
}

// Unbind drops the run's input refs (the caller owns the inputs; holding
// them would pin their memory).
func (rt *Runtime) Unbind() {
	for i := 0; i < rt.numInputs && i < len(rt.vals); i++ {
		rt.vals[i] = nil
	}
}

// Exec evaluates instrs over the runtime's value table on it (see
// Interp.Run). Instructions of one level write disjoint slots, so any
// number of interpreters may Exec partitions of the same level at once.
func (rt *Runtime) Exec(it *Interp, instrs []Instr, flush bool) error {
	return it.Run(instrs, rt.vals, rt.pool, flush)
}

// Collect materializes p's output ciphertexts from the value table via the
// shared execution core's collector; every output is a fresh copy.
func (rt *Runtime) Collect(p *Plan) ([]*lwe.Sample, error) {
	return exec.CollectOutputs(rt.dim, p.outputs, func(ref Ref) *lwe.Sample {
		if int(ref) >= len(rt.vals) {
			return nil
		}
		return rt.vals[ref]
	})
}

// Counts is what an Interp has executed since its owner last cleared it.
type Counts struct {
	Instrs     int64 // instructions, free gates included
	Bootstraps int64 // bootstrapped instructions (LUTs included)
	LUTs       int64 // multi-input LUT instructions
	Batches    int64 // batched kernel dispatches (zero at batch ≤ 1)
}

// Interp is the one evaluator of plan instructions: classic gates and LUTs,
// one at a time or grouped into batched kernel dispatches, on one engine.
// Plan replay, the serving scheduler's workers and shard runtimes all run
// instructions through it, so a new gate kind or LUT arity is handled here
// and nowhere else. An Interp belongs to one goroutine.
type Interp struct {
	eng   *gate.Engine
	batch int

	// N accumulates across Run calls; the owner reads and clears it.
	N Counts

	// The pending batch: bootstrapped instructions collected but not yet
	// dispatched, as the parallel arrays gate.Engine.OpBatch takes.
	ops  []gate.Op
	outs []*lwe.Sample
	avs  []*lwe.Sample
	bvs  []*lwe.Sample
	cvs  []*lwe.Sample
}

// NewInterp returns an interpreter on eng that groups up to batch
// bootstrapped instructions per kernel dispatch (batch ≤ 1: every
// instruction evaluates on its own).
func NewInterp(eng *gate.Engine, batch int) *Interp {
	return &Interp{eng: eng, batch: batch}
}

// Pending reports how many bootstrapped instructions wait in the partial
// batch.
func (it *Interp) Pending() int { return len(it.ops) }

// drop empties the pending batch.
func (it *Interp) drop() {
	it.ops, it.outs, it.avs, it.bvs, it.cvs = it.ops[:0], it.outs[:0], it.avs[:0], it.bvs[:0], it.cvs[:0]
}

// Run evaluates instrs — mutually independent instructions, e.g. part of
// one plan level — over the value table vals. Output slots are taken from
// mem on first touch; each slot is written by exactly one instruction per
// level, so concurrent interpreters on one table never collide. Free
// instructions evaluate where they appear; bootstrapped ones join the
// pending batch, which is dispatched whenever it reaches the batch size
// and, when flush is set, once more at the end. With flush unset a partial
// batch stays pending so a later Run — on any table whose instructions are
// independent of these — can fill it; Run(nil, nil, nil, true) dispatches
// it. On error the pending batch is dropped.
func (it *Interp) Run(instrs []Instr, vals []*lwe.Sample, mem *exec.Arena, flush bool) (err error) {
	dispatch := func() error {
		if len(it.ops) == 0 {
			return nil
		}
		it.N.Batches++
		err := it.eng.OpBatch(it.ops, it.outs, it.avs, it.bvs, it.cvs)
		it.drop()
		return err
	}
	defer func() {
		if err != nil {
			it.drop()
			err = fmt.Errorf("plan: replay: %w", err)
		}
	}()
	for _, ins := range instrs {
		a, b := vals[ins.A], vals[ins.B]
		var c *lwe.Sample
		if ins.Arity >= 3 {
			c = vals[ins.C]
		}
		if a == nil || b == nil || (ins.Arity >= 3 && c == nil) {
			return fmt.Errorf("instr reads unwritten slot (%d,%d,%d)", ins.A, ins.B, ins.C)
		}
		out := vals[ins.Out]
		if out == nil {
			out = mem.Get()
			vals[ins.Out] = out
		}
		it.N.Instrs++
		if ins.IsLUT() {
			it.N.LUTs++
		}
		boots := ins.NeedsBootstrap()
		if boots {
			it.N.Bootstraps++
		}
		switch {
		case boots && it.batch > 1:
			it.ops = append(it.ops, gate.Op{Kind: ins.Kind, TT: ins.TT, Arity: ins.Arity})
			it.outs = append(it.outs, out)
			it.avs = append(it.avs, a)
			it.bvs = append(it.bvs, b)
			it.cvs = append(it.cvs, c)
			if len(it.ops) == it.batch {
				err = dispatch()
			}
		case ins.IsLUT():
			opv := [logic.MaxLUTArity]*lwe.Sample{a, b, c}
			err = it.eng.LUT(int(ins.Arity), ins.TT, out, opv[:ins.Arity]...)
		default:
			err = it.eng.Binary(ins.Kind, out, a, b)
		}
		if err != nil {
			return err
		}
	}
	if flush {
		return dispatch()
	}
	return nil
}

// barrier is a cyclic barrier for the replay workers: the only
// synchronization between gate evaluations (one await per level).
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for b.gen == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// Replay executes a plan: one engine per worker (engine 0 is used alone
// when only one is supplied), the caller's input ciphertexts, and a
// persistent Runtime. The returned slice parallels the source netlist's
// outputs and is freshly allocated; inputs are not modified.
func Replay(ctx context.Context, p *Plan, engines []*gate.Engine, inputs []*lwe.Sample, rt *Runtime) ([]*lwe.Sample, error) {
	return ReplayBatch(ctx, p, engines, inputs, rt, 1)
}

// ReplayBatch is Replay with batched bootstrap dispatch: within each
// worker's instruction sequence — one wavefront slice, so every
// instruction in it is independent — bootstrapped instructions are grouped
// up to batch per kernel call, amortizing the bootstrapping-key stream;
// free instructions run inline at their original position. batch <= 1
// reproduces Replay exactly.
func ReplayBatch(ctx context.Context, p *Plan, engines []*gate.Engine, inputs []*lwe.Sample, rt *Runtime, batch int) ([]*lwe.Sample, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("plan: replay needs at least one engine")
	}
	if err := rt.Bind(p, inputs); err != nil {
		return nil, err
	}
	defer rt.Unbind()

	// More engines than plan partitions: the extras would only spin on
	// the barrier.
	nw := min(len(engines), p.Workers)
	its := make([]*Interp, nw)
	for w := range its {
		its[w] = NewInterp(engines[w], batch)
	}
	var err error
	if nw == 1 {
		err = replaySeq(ctx, p, its[0], rt)
	} else {
		err = replayBarrier(ctx, p, its, rt)
	}
	rt.batches, rt.batchedBoots = 0, 0
	for _, it := range its {
		if it.N.Batches > 0 {
			rt.batches += it.N.Batches
			rt.batchedBoots += it.N.Bootstraps
		}
	}
	if err != nil {
		return nil, err
	}
	return rt.Collect(p)
}

// replayBarrier runs the plan on len(its) goroutines. Worker w owns
// batches j with j % nw == w of every level, so a plan partitioned for
// more workers than we have engines still replays correctly (batches are
// merely coarser than ideal). The per-level barrier is the only
// synchronization; on error or cancellation the workers keep arriving at
// the barrier (skipping the gate work) so nobody deadlocks mid-plan.
func replayBarrier(ctx context.Context, p *Plan, its []*Interp, rt *Runtime) error {
	nw := len(its)
	bar := newBarrier(nw)
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, lv := range p.levels {
				if !failed() {
					if w == 0 && ctx.Err() != nil {
						fail(ctx.Err())
					} else {
						for j := w; j < len(lv.Batches); j += nw {
							if err := rt.Exec(its[w], lv.Batches[j], true); err != nil {
								fail(err)
								break
							}
						}
					}
				}
				bar.await()
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// replaySeq is the single-engine fast path: no barrier, no goroutines.
func replaySeq(ctx context.Context, p *Plan, it *Interp, rt *Runtime) error {
	for _, lv := range p.levels {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, instrs := range lv.Batches {
			if err := rt.Exec(it, instrs, true); err != nil {
				return err
			}
		}
	}
	return nil
}
