package backend

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/plan"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
)

// Planned is the capture/replay backend — the CPU analogue of the paper's
// CUDA-Graph batch scheduling. The first Run of a netlist captures it into
// an immutable execution plan; every Run — the first included — replays
// the cached plan with no scheduling work at all: no ready heap,
// no per-gate atomics, no refcounting, and no ciphertext allocations
// (the exec.Arena persists in the runtime).
//
// Capture also performs exact functional deduplication, so replay executes
// only the netlist's distinct boolean functions. Stats reports the
// *logical* gate and bootstrap counts — BootstrapsPerSec is the program's
// effective throughput (logical bootstraps per second), the number
// comparable across backends; PlanStats carries the executed counts.
type Planned struct {
	ws    *exec.Workers
	batch int

	mu    sync.Mutex
	plans map[*circuit.Netlist]*plan.Plan
	rt    *plan.Runtime

	Stats     RunStats
	PlanStats plan.Stats
}

// NewPlanned returns a capture/replay backend with the given worker count
// (minimum 1).
func NewPlanned(ck *boot.CloudKey, workers int) *Planned {
	return NewPlannedBatch(ck, workers, 1)
}

// NewPlannedBatch is NewPlanned with batched bootstrap dispatch during
// replay: each worker groups the bootstrapped instructions of its level
// slice up to batch per amortized kernel call (plan.ReplayBatch). batch <=
// 1 behaves exactly like NewPlanned.
func NewPlannedBatch(ck *boot.CloudKey, workers, batch int) *Planned {
	if batch < 1 {
		batch = 1
	}
	ws := exec.NewWorkers(ck, workers)
	return &Planned{
		ws:    ws,
		batch: batch,
		plans: make(map[*circuit.Netlist]*plan.Plan),
		rt:    plan.NewRuntime(ws.Dim()),
	}
}

// Name implements Backend.
func (p *Planned) Name() string {
	name := fmt.Sprintf("plan-cpu(%d)", p.ws.N())
	if p.batch > 1 {
		name += fmt.Sprintf("[batch=%d]", p.batch)
	}
	return name
}

// ArenaHighWater returns the peak number of arena ciphertexts held across
// all runs.
func (p *Planned) ArenaHighWater() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rt.HighWater()
}

// Plan returns the cached plan for nl, compiling it if needed.
func (p *Planned) Plan(nl *circuit.Netlist) (*plan.Plan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.planLocked(nl)
}

func (p *Planned) planLocked(nl *circuit.Netlist) (*plan.Plan, error) {
	if cached, ok := p.plans[nl]; ok {
		return cached, nil
	}
	compiled, err := plan.Compile(nl, p.ws.N())
	if err != nil {
		return nil, err
	}
	p.plans[nl] = compiled
	return compiled, nil
}

// Run implements Backend.
func (p *Planned) Run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	if err := exec.CheckInputs(nl, inputs, p.ws.Dim()); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()

	compiled, err := p.planLocked(nl)
	if err != nil {
		return nil, err
	}
	outs, err := plan.ReplayBatch(context.Background(), compiled, p.ws.Engines(), inputs, p.rt, p.batch)
	if err != nil {
		return nil, err
	}

	st := compiled.Stats()
	p.PlanStats = st
	p.Stats = RunStats{
		Gates:      st.LogicalGates,
		Bootstraps: st.LogicalBootstraps,
		LUTs:       st.LogicalLUTs,
		Levels:     st.Levels,
		Workers:    p.ws.N(),
		BatchSize:  p.batch,
	}
	if batches, batched := p.rt.BatchOccupancy(); batches > 0 {
		p.Stats.Batches = int(batches)
		p.Stats.BatchedBootstraps = int(batched)
	}
	p.Stats.Finish(start)
	return outs, nil
}
