package backend

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/plan"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
)

// Planned is the capture/replay backend — the CPU analogue of the paper's
// CUDA-Graph batch scheduling, and the one multi-worker in-process
// executor (NewPool is Planned unbatched). Every Run captures the
// netlist into an immutable execution plan and replays it with no
// per-gate scheduling work at all: no per-gate atomics, no refcounting,
// and no ciphertext allocations (the scheduler pools its arenas). The
// capture is a fraction of a millisecond per thousand gates, next to
// milliseconds per bootstrap, and it ties the plan to the netlist's
// content: a netlist edited between two Runs runs as edited. A caller
// that runs one program many times compiles its plan once and submits
// it to Shared itself, as pytfhed does.
//
// Planned is a one-tenant client of Shared, the scheduler pytfhed serves
// from: one registered key, one Submit per Run, so a plan is scheduled the
// same way in the CLI, the benchmarks and the daemon. Run is safe for
// concurrent use; concurrent runs share the worker set and, at batch > 1,
// kernel dispatches. Stats is the run's own share of the worker set (busy
// time, queue wait, batch occupancy: Shared.Submit's RunCounts), so
// concurrent runs do not count each other's work. Close stops the workers;
// one that is never closed costs its parked worker goroutines and nothing
// else.
//
// Capture also performs exact functional deduplication, so replay executes
// only the netlist's distinct boolean functions. Stats reports the
// *logical* gate and bootstrap counts — BootstrapsPerSec is the program's
// effective throughput (logical bootstraps per second), the number
// comparable across backends; PlanStats carries the executed counts.
type Planned struct {
	sh  *Shared
	key *SharedKey

	mu sync.Mutex // guards Stats and PlanStats

	lastRun
}

// NewPlanned returns a capture/replay backend with the given worker count
// (minimum 1) that groups up to batch bootstrapped instructions per kernel
// dispatch (batch <= 1: unbatched).
func NewPlanned(ck *boot.CloudKey, workers, batch int) *Planned {
	sh := NewShared(workers, batch)
	key, err := sh.RegisterKey(ck)
	if err != nil {
		panic(err) // only a closed executor refuses a key
	}
	return &Planned{sh: sh, key: key}
}

// NewPlannedBatch, NewAsyncSched, Sched and SchedCritical survive only
// because bench/, which may not be edited, compiles against them: every
// multi-worker in-process run is a Planned run.
func NewPlannedBatch(ck *boot.CloudKey, workers, batch int) *Planned {
	return NewPlanned(ck, workers, batch)
}

// NewAsyncSched is NewPlanned(ck, workers, DefaultBatch): what `pytfhe run
// -backend auto -workers W` builds with no -batch flag; see NewPlannedBatch.
func NewAsyncSched(ck *boot.CloudKey, workers int, _ Sched) *Planned {
	return NewPlanned(ck, workers, DefaultBatch)
}

// Sched is an argument NewAsyncSched ignores; see NewPlannedBatch.
type Sched uint8

// SchedCritical is the one Sched value; see NewPlannedBatch.
const SchedCritical Sched = 0

// Name implements Backend.
func (p *Planned) Name() string {
	name := fmt.Sprintf("plan-cpu(%d)", p.sh.workers)
	if p.sh.batch > 1 {
		name += fmt.Sprintf("[batch=%d]", p.sh.batch)
	}
	return name
}

// Close stops the worker set; it returns once every worker has exited. Runs
// in flight, and every Run afterwards, fail with ErrExecutorClosed.
func (p *Planned) Close() { p.sh.Close() }

// ArenaHighWater returns the most arena ciphertexts any one run has held.
func (p *Planned) ArenaHighWater() int { return p.sh.Stats().ArenaHighWater }

// Run implements Backend.
func (p *Planned) Run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	outs, stats, ps, err := p.run(nl, inputs)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.Stats, p.PlanStats = stats, ps
	p.mu.Unlock()
	return outs, nil
}

// run is Run returning the run's own metrics and its plan's capture
// summary, which Stats and PlanStats hold only until the next Run
// finishes.
func (p *Planned) run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, RunStats, plan.Stats, error) {
	start := time.Now()
	compiled, err := plan.Compile(nl)
	if err != nil {
		return nil, RunStats{}, plan.Stats{}, err
	}
	outs, n, err := p.sh.Submit(context.Background(), p.key, compiled, inputs)
	if err != nil {
		return nil, RunStats{}, plan.Stats{}, err
	}

	st := compiled.Stats()
	stats := planRunStats(st, p.sh.workers)
	stats.QueueWait, stats.WorkerBusy = n.QueueWait, n.WorkerBusy
	stats.BatchSize, stats.Batches, stats.BatchedBootstraps = p.sh.batch, int(n.Batches), int(n.BatchedBootstraps)
	stats.Finish(start)
	return outs, stats, st, nil
}
