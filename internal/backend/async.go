package backend

import (
	"fmt"

	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
)

// Async is the barrier-free, dependency-driven CPU executor. Where Pool
// drains the DAG wavefront by wavefront with a barrier per level
// (Algorithm 1 verbatim), Async dispatches every gate the moment its last
// operand is produced — exec.RunReady's policy: atomic pending-operand
// counters, a blocking ready queue served by persistent worker
// goroutines (one gate.Engine each), and per-worker ciphertext pools so
// recycling stays lock-free on the hot path. This is how a real task
// runtime such as Ray — the paper's backend — actually behaves, and it is
// the executor that internal/sched's SimulateAsync models; on deep or
// irregular netlists it keeps workers saturated where the level barrier
// would leave them idle. The ready set pops the gate with the deepest
// remaining bootstrap chain first, so limited workers always advance the
// DAG's critical path.
type Async struct {
	ws    *exec.Workers
	batch int
	lastRun
}

// NewAsync returns a dependency-driven backend with the given worker count
// (minimum 1) whose workers each fuse up to batch ready bootstrapped gates
// into one amortized blind-rotation dispatch (batch <= 1: unbatched). Like
// Pool, an Async value is not safe for concurrent Run calls: the engines
// persist across runs and each run reuses them.
func NewAsync(ck *boot.CloudKey, workers, batch int) *Async {
	return &Async{ws: exec.NewWorkers(ck, workers), batch: max(batch, 1)}
}

// Sched, SchedCritical and NewAsyncSched survive only because bench/, which
// may not be edited, compiles against them: critical-path order is the one
// ready-queue policy.
type Sched uint8

// SchedCritical is the ready queue's order; see Sched.
const SchedCritical Sched = 0

// NewAsyncSched is NewAsync(ck, workers, 1); see Sched.
func NewAsyncSched(ck *boot.CloudKey, workers int, _ Sched) *Async { return NewAsync(ck, workers, 1) }

// Name implements Backend.
func (a *Async) Name() string {
	name := fmt.Sprintf("async-cpu(%d)", a.ws.N())
	if a.batch > 1 {
		name += fmt.Sprintf("[batch=%d]", a.batch)
	}
	return name
}

// Run implements Backend.
func (a *Async) Run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	outs, stats, err := exec.RunReady(a.ws, nl, inputs, a.batch)
	if err != nil {
		return nil, err
	}
	a.Stats = stats
	return outs, nil
}
