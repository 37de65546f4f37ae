package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pytfhe/internal/exec"
	"pytfhe/internal/plan"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// WorkerBatch is how many bootstrapped instructions of an engine's share of
// a shard level share one kernel dispatch on a cluster worker — the value
// pytfhed defaults to.
const WorkerBatch = 16

// Runtime is the worker-side replay state for one shard: a value table
// whose remote-input slots the router fills each run (SetRemote) and whose
// local slots come from a lazily populated exec.Arena, exactly like
// plan.Runtime's. A Runtime is single-owner between levels — the worker's
// serve loop installs fills and drives RunLevel sequentially; only the
// engine fan-out inside RunLevel is concurrent, and it touches disjoint
// slots (the plan's level independence carries over to the shard).
// internal/lint's unsynced-exec-state analyzer reports a SetRemote from a
// goroutine that captured the Runtime, and any use of a Runtime outside
// the executor layers.
type Runtime struct {
	sh    *Shard
	arena *exec.Arena
	vals  []*lwe.Sample
	boots int64
}

// NewRuntime builds a reusable runtime for sh at the given LWE dimension.
func NewRuntime(sh *Shard, dim int) *Runtime {
	return &Runtime{
		sh:    sh,
		arena: exec.NewArena(dim),
		vals:  make([]*lwe.Sample, sh.NumRemote+sh.NumLocal),
	}
}

// Shard returns the shard this runtime executes.
func (rt *Runtime) Shard() *Shard { return rt.sh }

// Bootstraps returns the bootstrapped instructions executed since the
// last Reset.
func (rt *Runtime) Bootstraps() int64 { return atomic.LoadInt64(&rt.boots) }

// SetRemote installs a router-delivered ciphertext into a remote-input
// slot. The runtime borrows the sample for the rest of the run; it is
// never returned to the arena (it was not allocated from it).
func (rt *Runtime) SetRemote(slot int32, v *lwe.Sample) error {
	if slot < 0 || slot >= int32(rt.sh.NumRemote) {
		return fmt.Errorf("shard: remote slot %d outside [0,%d)", slot, rt.sh.NumRemote)
	}
	if v == nil {
		return fmt.Errorf("%w: remote slot %d", exec.ErrNilInput, slot)
	}
	rt.vals[slot] = v
	return nil
}

// RunLevel executes the shard's instructions for one global plan level,
// fanning the batch out across the worker's engines — safe because
// instructions within a level write disjoint slots and read only earlier
// levels, so the only shared structure is the internally locked arena —
// and returns the level's exported ciphertexts in manifest order.
func (rt *Runtime) RunLevel(engines []*gate.Engine, level int) ([]*lwe.Sample, error) {
	if level < 0 || level >= len(rt.sh.Levels) {
		return nil, fmt.Errorf("shard %d: level %d outside plan (%d levels)", rt.sh.Index, level, len(rt.sh.Levels))
	}
	instrs := rt.sh.Levels[level]
	if len(instrs) > 0 {
		if len(engines) == 0 {
			return nil, fmt.Errorf("shard %d: no engines", rt.sh.Index)
		}
		chunk := (len(instrs) + len(engines) - 1) / len(engines)
		var wg sync.WaitGroup
		var errMu sync.Mutex
		var firstErr error
		for e := 0; e*chunk < len(instrs); e++ {
			lo, hi := e*chunk, (e+1)*chunk
			if hi > len(instrs) {
				hi = len(instrs)
			}
			wg.Add(1)
			go func(eng *gate.Engine, part []plan.Instr) {
				defer wg.Done()
				// Output slots allocate from the arena on first touch,
				// mirroring plan.Runtime's lazy warm-up.
				it := plan.NewInterp(eng, WorkerBatch)
				err := it.Run(part, rt.vals, rt.arena, true)
				atomic.AddInt64(&rt.boots, it.N.Bootstraps)
				if err != nil {
					err = fmt.Errorf("shard %d: %w", rt.sh.Index, err)
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}(engines[e], instrs[lo:hi])
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	exp := rt.sh.Exports[level]
	outs := make([]*lwe.Sample, len(exp))
	for i, ref := range exp {
		v := rt.vals[ref]
		if v == nil {
			return nil, fmt.Errorf("shard %d: level %d exports unwritten slot %d", rt.sh.Index, level, ref)
		}
		outs[i] = v
	}
	return outs, nil
}

// Reset prepares the runtime for the next run: local slots return to the
// arena for reuse, remote slots drop their borrowed samples.
func (rt *Runtime) Reset() {
	for i := 0; i < rt.sh.NumRemote; i++ {
		rt.vals[i] = nil
	}
	for i := rt.sh.NumRemote; i < len(rt.vals); i++ {
		if rt.vals[i] != nil {
			rt.arena.Put(rt.vals[i])
			rt.vals[i] = nil
		}
	}
	atomic.StoreInt64(&rt.boots, 0)
}
