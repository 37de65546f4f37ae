package backend

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/plan"
	"pytfhe/internal/sched"
	"pytfhe/internal/tfhe/lwe"
)

func TestPlannedBackendHomomorphic(t *testing.T) {
	sk, ck := keys(t)
	nl := adder4(t)
	for _, workers := range []int{1, 2, 4} {
		be := NewPlanned(ck, workers, 1)
		defer be.Close()
		for run := 0; run < 2; run++ { // second run replays the cached plan
			in := append(bitsOf(11, 4), bitsOf(6, 4)...)
			outs, err := be.Run(nl, EncryptInputs(sk, in))
			if err != nil {
				t.Fatal(err)
			}
			got := uintOf(DecryptOutputs(sk, outs))
			if got != 17 {
				t.Fatalf("plan(%d) run %d: 11+6 = %d", workers, run, got)
			}
		}
		st := be.Stats
		if st.Bootstraps == 0 || st.GatesPerSec <= 0 {
			t.Fatalf("plan(%d): stats not recorded: %+v", workers, st)
		}
		if st.Workers != workers {
			t.Fatalf("plan(%d): workers recorded as %d", workers, st.Workers)
		}
		if st.WorkerBusy <= 0 || st.Utilization <= 0 || st.Utilization > 1 {
			t.Fatalf("plan(%d): utilization breakdown wrong: %+v", workers, st)
		}
		if st.QueueWait < 0 || st.AvgQueueWait < 0 {
			t.Fatalf("plan(%d): queue wait negative: %+v", workers, st)
		}
		if be.PlanStats.ExecBootstraps == 0 || be.PlanStats.ExecBootstraps > be.PlanStats.LogicalBootstraps {
			t.Fatalf("plan(%d): implausible plan stats: %+v", workers, be.PlanStats)
		}
		if hw := be.ArenaHighWater(); hw == 0 || hw > be.PlanStats.ArenaSlots {
			t.Fatalf("plan(%d): arena high water %d outside (0, %d]", workers, hw, be.PlanStats.ArenaSlots)
		}
	}
}

// TestPlannedLifecycle: Planned owns a worker set, so it has a lifetime.
// Two concurrent Runs on one value (they used to serialize under a mutex)
// return the very ciphertexts Single computes — evaluation is deterministic
// and the adder has nothing for plan deduplication to merge; batch occupancy and the arena figure
// come from the scheduler; Close returns the goroutine count to its
// baseline; Run after Close fails with ErrExecutorClosed.
func TestPlannedLifecycle(t *testing.T) {
	sk, ck := keys(t)
	nl := adder4(t)
	ins := [][]*lwe.Sample{
		EncryptInputs(sk, append(bitsOf(11, 4), bitsOf(6, 4)...)),
		EncryptInputs(sk, append(bitsOf(3, 4), bitsOf(15, 4)...)),
	}
	want := make([][]*lwe.Sample, len(ins))
	for i, in := range ins {
		var err error
		if want[i], err = NewSingle(ck).Run(nl, in); err != nil {
			t.Fatal(err)
		}
	}

	baseline := runtime.NumGoroutine()
	be := NewPlanned(ck, 3, 16)
	if n := runtime.NumGoroutine(); n <= baseline {
		t.Fatalf("%d goroutines after NewPlanned(…, 3, …), baseline %d: no workers started", n, baseline)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(ins))
	got := make([][]*lwe.Sample, len(ins))
	for i, in := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = be.Run(nl, in)
		}()
	}
	wg.Wait()
	for i := range ins {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		for o, w := range want[i] {
			if g := got[i][o]; g.B != w.B || !slices.Equal(g.A, w.A) {
				t.Fatalf("concurrent run %d: output %d is not the ciphertext Single computes", i, o)
			}
		}
	}
	if st := be.Stats; st.Batches == 0 || st.BatchedBootstraps < st.Batches || st.BatchSize != 16 || st.Workers != 3 {
		t.Fatalf("batch occupancy not recorded from the scheduler: %+v", st)
	}
	if hw := be.ArenaHighWater(); hw == 0 || hw > be.PlanStats.ArenaSlots {
		t.Fatalf("arena high water %d outside (0, %d]", hw, be.PlanStats.ArenaSlots)
	}

	be.Close()
	be.Close() // idempotent
	// Close waits for the workers; the runtime may take a moment to retire
	// the exited goroutines from its count.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := be.Run(nl, ins[0]); !errors.Is(err, ErrExecutorClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrExecutorClosed", err)
	}
}

// TestPlannedConcurrentRunCounts: two Runs in flight at once on one
// Planned, at batch 16 on different netlists, each report their own share
// of the scheduler and nothing of the other's: a run's batched bootstraps
// never exceed what its own plan executes, and the two reports sum to
// exactly what the scheduler batched over both.
func TestPlannedConcurrentRunCounts(t *testing.T) {
	sk, ck := keys(t)
	nls := []*circuit.Netlist{adder4(t), nandChains(4, 6)}
	be := NewPlanned(ck, 2, 16)
	defer be.Close()
	inputs := make([][]*lwe.Sample, len(nls))
	for i, nl := range nls {
		inputs[i] = EncryptInputs(sk, make([]bool, nl.NumInputs))
		if _, err := be.Plan(nl); err != nil { // compile outside the race
			t.Fatal(err)
		}
	}

	before := be.sh.Stats()
	stats := make([]RunStats, len(nls))
	errs := make([]error, len(nls))
	var start, wg sync.WaitGroup
	start.Add(1)
	for i, nl := range nls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			_, stats[i], errs[i] = be.run(nl, inputs[i])
		}()
	}
	start.Done()
	wg.Wait()
	after := be.sh.Stats()

	sum := 0
	for i, nl := range nls {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		p, _ := be.Plan(nl)
		if own := p.Stats().ExecBootstraps; stats[i].BatchedBootstraps > own || stats[i].Batches == 0 {
			t.Fatalf("%s: %d batched bootstraps in %d dispatches, its plan executes %d",
				nl.Name, stats[i].BatchedBootstraps, stats[i].Batches, own)
		}
		if stats[i].WorkerBusy <= 0 || stats[i].Utilization > 1 {
			t.Fatalf("%s: utilization breakdown wrong: %+v", nl.Name, stats[i])
		}
		sum += stats[i].BatchedBootstraps
	}
	if delta := after.BatchedBootstraps - before.BatchedBootstraps; int64(sum) != delta {
		t.Fatalf("runs report %d batched bootstraps, the scheduler batched %d", sum, delta)
	}
}

// TestPlanLivenessMatchesRefcounting checks the compile-time arena
// assignment against the invariant the dynamic executors enforce with
// runtime refcounts: the arena is never larger than the peak number of
// simultaneously live gate ciphertexts (computed here with the same
// barrier-granularity refcount walk Pool performs at runtime).
func TestPlanLivenessMatchesRefcounting(t *testing.T) {
	nls := []*circuit.Netlist{adder4(t)}
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 3; trial++ {
		b := circuit.NewBuilder("rand", circuit.NoOptimizations())
		nodes := []circuit.NodeID{b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d"), b.Input("e")}
		for i := 0; i < 60; i++ {
			kind := logic.TFHEGates()[rng.Intn(11)]
			nodes = append(nodes, b.Gate(kind, nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]))
		}
		b.Output("o0", nodes[len(nodes)-1])
		b.Output("o1", nodes[len(nodes)-7])
		nls = append(nls, b.MustBuild())
	}
	for _, nl := range nls {
		// Barrier-granularity refcount simulation over the logical netlist:
		// a gate's ciphertext is live from its level until the level after
		// its last reader (outputs stay live to the end) — exactly the
		// executors' release() discipline.
		remaining := nl.FanOut()
		live, peak := 0, 0
		values := make(map[circuit.NodeID]bool)
		for _, level := range nl.Levels() {
			for _, gi := range level {
				values[nl.GateID(gi)] = true
				live++
			}
			if live > peak {
				peak = live
			}
			for _, gi := range level {
				for _, op := range [2]circuit.NodeID{nl.Gates[gi].A, nl.Gates[gi].B} {
					if nl.IsInput(op) {
						continue
					}
					remaining[op]--
					if remaining[op] == 0 && values[op] {
						values[op] = false
						live--
					}
				}
			}
		}
		for _, workers := range []int{1, 2, 4} {
			p, err := plan.Compile(nl, workers)
			if err != nil {
				t.Fatal(err)
			}
			if p.ArenaSlots() > peak {
				t.Fatalf("%s w=%d: arena %d exceeds refcounted peak live %d",
					nl.Name, workers, p.ArenaSlots(), peak)
			}
			st := p.Stats()
			if st.ExecBootstraps > st.LogicalBootstraps {
				t.Fatalf("%s w=%d: dedup grew the program: %+v", nl.Name, workers, st)
			}
		}
	}
}

// TestPlannedMatchesSimulatedMakespan calibrates sched.Simulate — the
// level-synchronous model, which is what a plan replay runs: one level's
// slices, then the next — against the real executor: with the run's own
// gate-time (its workers' busy time per bootstrap) plugged into the
// LocalPool platform, the simulator's predicted makespan must fall within
// a factor of 3 of backend.Planned's measured wall clock. Taking the
// gate-time from the measured run rather than from a separate calibration
// keeps the comparison in gate-times when the host is loaded: CPU
// time-sharing slows the run's gates and the prediction together. The
// tolerance is generous because a loaded host also stalls workers between
// gates, which busy time does not see.
func TestPlannedMatchesSimulatedMakespan(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs wall-clock measurements")
	}
	sk, ck := keys(t)

	// A deep-and-wide netlist: 4 independent 8-gate chains, so 2 workers
	// are busy and every level holds more slices than workers.
	nl := nandChains(4, 8)

	const workers = 2
	be := NewPlanned(ck, workers, 1)
	defer be.Close()
	in := EncryptInputs(sk, make([]bool, nl.NumInputs))
	// The first run compiles the plan and builds the workers' engines;
	// only the second is measured.
	for i := 0; i < 2; i++ {
		if _, err := be.Run(nl, in); err != nil {
			t.Fatal(err)
		}
	}
	if ps := be.PlanStats; ps.ExecBootstraps != ps.LogicalBootstraps {
		t.Fatalf("deduplication merged the calibration netlist (%d of %d bootstraps left): the model would time gates the plan skips",
			ps.ExecBootstraps, ps.LogicalBootstraps)
	}
	measured := be.Stats.Elapsed
	gt := be.Stats.WorkerBusy / time.Duration(be.Stats.Bootstraps)
	predicted := sched.Simulate(nl, sched.LocalPool(workers, gt)).Makespan

	ratio := float64(measured) / float64(predicted)
	t.Logf("measured %v vs predicted %v at %v a gate (ratio %.2f)", measured, predicted, gt, ratio)
	if ratio < 1.0/3 || ratio > 3 {
		t.Fatalf("measured %v vs predicted %v (ratio %.2f, tolerance 3x): simulator out of calibration", measured, predicted, ratio)
	}
}
