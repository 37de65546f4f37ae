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
		if be.Stats.Bootstraps == 0 || be.Stats.GatesPerSec <= 0 {
			t.Fatalf("plan(%d): stats not recorded: %+v", workers, be.Stats)
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

// TestPlanLivenessMatchesRefcounting checks the compile-time arena
// assignment against the invariant the dynamic executors enforce with
// runtime refcounts: the arena is never larger than the peak number of
// simultaneously live gate ciphertexts (computed here with the same
// barrier-granularity refcount walk Pool and Async perform at runtime).
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
