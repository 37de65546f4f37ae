package backend

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/trand"
)

// secondKeys generates a distinct tenant key pair, so Shared tests exercise
// cross-key engine caching rather than a single shared key.
var (
	secondOnce sync.Once
	secondSK   *boot.SecretKey
	secondCK   *boot.CloudKey
)

func keys2(t testing.TB) (*boot.SecretKey, *boot.CloudKey) {
	secondOnce.Do(func() {
		rng := trand.NewSeeded([]byte("backend-test-keys-tenant2"))
		sk, ck, err := boot.GenerateKeys(params.Test(), rng)
		if err != nil {
			panic(err)
		}
		secondSK, secondCK = sk, ck
	})
	return secondSK, secondCK
}

// mustPlan compiles nl the way the daemon does before it submits.
func mustPlan(t testing.TB, nl *circuit.Netlist) *plan.Plan {
	t.Helper()
	p, err := plan.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSharedMatchesSingle runs concurrent submissions from two tenants
// (distinct cloud keys, two runs in flight under each) on one Shared worker
// set — at every worker count and both batch modes — and checks every
// result against the plaintext sum under the matching key.
func TestSharedMatchesSingle(t *testing.T) {
	sk1, ck1 := keys(t)
	sk2, ck2 := keys2(t)

	for _, workers := range []int{1, 2, 3} {
		for _, batch := range []int{1, 16} {
			nl := mustPlan(t, adder4(t))
			ex := NewShared(workers, batch)
			k1, err := ex.RegisterKey(ck1)
			if err != nil {
				t.Fatal(err)
			}
			k2, err := ex.RegisterKey(ck2)
			if err != nil {
				t.Fatal(err)
			}

			type tenant struct {
				sk  *boot.SecretKey
				key *SharedKey
			}
			tenants := []tenant{{sk1, k1}, {sk2, k2}, {sk1, k1}, {sk2, k2}}
			cases := [][2]uint64{{3, 5}, {15, 15}, {0, 9}, {7, 12}}

			var wg sync.WaitGroup
			for i, tn := range tenants {
				wg.Add(1)
				go func(i int, tn tenant) {
					defer wg.Done()
					tc := cases[i]
					in := append(bitsOf(tc[0], 4), bitsOf(tc[1], 4)...)
					outs, _, err := ex.Submit(context.Background(), tn.key, nl, EncryptInputs(tn.sk, in))
					if err != nil {
						t.Errorf("workers=%d batch=%d tenant %d: %v", workers, batch, i, err)
						return
					}
					if got := uintOf(DecryptOutputs(tn.sk, outs)); got != tc[0]+tc[1] {
						t.Errorf("workers=%d batch=%d tenant %d: %d+%d = %d on shared executor", workers, batch, i, tc[0], tc[1], got)
					}
				}(i, tn)
			}
			wg.Wait()

			st := ex.Stats()
			ex.Close()
			wantBoots := int64(4 * nl.Stats().ExecBootstraps)
			if st.Submits != 4 || st.Bootstraps != wantBoots || st.InFlight != 0 {
				t.Fatalf("workers=%d batch=%d: stats = %+v, want 4 submits and %d bootstraps", workers, batch, st, wantBoots)
			}
			// Batched or not, every executed bootstrap is accounted once.
			if batch > 1 && st.BatchedBootstraps != wantBoots {
				t.Fatalf("workers=%d batch=%d: %d batched bootstraps, want %d", workers, batch, st.BatchedBootstraps, wantBoots)
			}
		}
	}
}

// TestSharedContextCancel checks a submission aborts promptly when its
// context is cancelled and the executor survives to serve later work.
func TestSharedContextCancel(t *testing.T) {
	sk, ck := keys(t)
	nl := mustPlan(t, adder4(t))
	ex := NewShared(1, 1)
	defer ex.Close()
	key, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the run must not start from scratch and hang
	in := append(bitsOf(1, 4), bitsOf(2, 4)...)
	if _, _, err := ex.Submit(ctx, key, nl, EncryptInputs(sk, in)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: err = %v, want context.Canceled", err)
	}

	outs, _, err := ex.Submit(context.Background(), key, nl, EncryptInputs(sk, in))
	if err != nil {
		t.Fatalf("executor unusable after cancel: %v", err)
	}
	if got := uintOf(DecryptOutputs(sk, outs)); got != 3 {
		t.Fatalf("1+2 = %d after cancel", got)
	}
}

// TestSharedCloseFailsInFlight checks Close aborts pending submissions
// with ErrExecutorClosed rather than leaving them blocked.
func TestSharedCloseFailsInFlight(t *testing.T) {
	sk, ck := keys(t)
	nl := mustPlan(t, adder4(t))
	ex := NewShared(1, 1)
	key, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}

	in := EncryptInputs(sk, bitsOf(0x35, 8))
	done := make(chan error, 1)
	go func() {
		_, _, err := ex.Submit(context.Background(), key, nl, in)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the run enter the queue
	ex.Close()
	err = <-done
	if err != nil && !errors.Is(err, ErrExecutorClosed) {
		t.Fatalf("in-flight submit after Close: %v", err)
	}
	if _, _, err := ex.Submit(context.Background(), key, nl, in); !errors.Is(err, ErrExecutorClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrExecutorClosed", err)
	}
}

// TestSharedAbortedRunRecyclesRuntime aborts a wide run mid-level — once by
// cancelling its context, once by closing the executor under it — and
// checks the safety property of the runtime pool: Submit returns only after
// every worker has left the run, so the runtime it hands back is quiescent.
// The very next replay on that runtime — a different plan, so every slot is
// rebound — must decrypt bit for bit; under -race a worker still writing
// into it would also be reported.
func TestSharedAbortedRunRecyclesRuntime(t *testing.T) {
	sk, ck := keys(t)
	dim := ck.Params.LWEDimension
	wide := mustPlan(t, wideXor(t, 12)) // one level of 66 bootstraps: 18 slices at batch 4 on 2 workers
	adder := adder4(t)
	next := mustPlan(t, adder)
	in := append(bitsOf(9, 4), bitsOf(5, 4)...)
	want, err := adder.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	check := func(outs []*lwe.Sample) {
		t.Helper()
		got := DecryptOutputs(sk, outs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("output %d = %v on the recycled runtime, want %v", i, got[i], want[i])
			}
		}
	}
	pooled := func(ex *Shared) []*plan.Runtime {
		ex.mu.Lock()
		defer ex.mu.Unlock()
		return append([]*plan.Runtime(nil), ex.free[dim]...)
	}

	for _, how := range []string{"cancel", "close"} {
		t.Run(how, func(t *testing.T) {
			ex := NewShared(2, 4)
			defer ex.Close()
			key, err := ex.RegisterKey(ck)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, _, err := ex.Submit(ctx, key, wide, EncryptInputs(sk, bitsOf(0xA53, 12)))
				done <- err
			}()
			for deadline := time.Now().Add(30 * time.Second); ex.Stats().Gates == 0; {
				if time.Now().After(deadline) {
					t.Fatal("run never started")
				}
				time.Sleep(100 * time.Microsecond)
			}
			wantErr := context.Canceled
			if how == "cancel" {
				cancel()
			} else {
				wantErr = ErrExecutorClosed
				ex.Close()
			}
			if err := <-done; !errors.Is(err, wantErr) {
				t.Fatalf("aborted submit: err = %v, want %v", err, wantErr)
			}
			if n := ex.Stats().Gates; n >= 66 {
				t.Fatalf("setup: the run finished (%d instructions) before the abort landed", n)
			}
			rts := pooled(ex)
			if len(rts) != 1 {
				t.Fatalf("%d runtimes pooled after the abort, want 1", len(rts))
			}

			if how == "cancel" {
				outs, _, err := ex.Submit(context.Background(), key, next, EncryptInputs(sk, in))
				if err != nil {
					t.Fatal(err)
				}
				check(outs)
				if again := pooled(ex); len(again) != 1 || again[0] != rts[0] {
					t.Fatalf("follow-up run did not reuse the pooled runtime")
				}
				return
			}
			// The executor is gone; replay on its runtime directly.
			outs, err := plan.Replay(next, plan.NewInterp(gate.NewEngine(ck), 4), EncryptInputs(sk, in), rts[0])
			if err != nil {
				t.Fatal(err)
			}
			check(outs)
		})
	}
}

// TestSharedSlicesCutLevels pins how the scheduler spreads a level: cut
// into one part per worker with equal bootstrap counts (plan.Cut), each
// part sliced to at most one kernel batch. A level of up to a batch of
// instructions — a cluster worker's shard level, say — is still served as
// one slice per worker it can keep busy, not as one slice on one worker;
// and a real run, cluster-worker style (the plan's levels handed to Run
// as they are), is served exactly those slices.
func TestSharedSlicesCutLevels(t *testing.T) {
	bootIns, freeIns := plan.Instr{TT: logic.TTOf(logic.NAND)}, plan.Instr{TT: logic.TTOf(logic.NOT)}
	for _, workers := range []int{1, 2, 3, 5} {
		for _, batch := range []int{1, 2, 4, 16} {
			s := &Shared{workers: workers, batch: batch}
			for n := 0; n <= 40; n++ {
				level := make([]plan.Instr, n)
				for i := range level {
					if level[i] = bootIns; i%3 == 2 {
						level[i] = freeIns
					}
					level[i].Out = int32(i)
				}
				var joined []plan.Instr
				sl := s.slices(level)
				for _, instrs := range sl {
					if len(instrs) == 0 || len(instrs) > batch {
						t.Fatalf("w=%d b=%d n=%d: slice of %d instructions", workers, batch, n, len(instrs))
					}
					joined = append(joined, instrs...)
				}
				if len(joined) != n || (n > 0 && !reflect.DeepEqual(joined, level)) {
					t.Fatalf("w=%d b=%d n=%d: slices do not concatenate to the level", workers, batch, n)
				}
				if n <= batch && len(sl) != min(workers, n) {
					t.Fatalf("w=%d b=%d n=%d: %d slices, want one per busy worker (%d)", workers, batch, n, len(sl), min(workers, n))
				}
			}
		}
	}

	// Eight bootstraps, then eight free instructions: an even split by
	// count would put all eight bootstraps on one worker.
	level := make([]plan.Instr, 16)
	for i := range level {
		if level[i] = freeIns; i < 8 {
			level[i] = bootIns
		}
	}
	sl := (&Shared{workers: 2, batch: 16}).slices(level)
	if len(sl) != 2 {
		t.Fatalf("%d slices, want 2", len(sl))
	}
	for i, instrs := range sl {
		boots := 0
		for _, ins := range instrs {
			if ins.NeedsBootstrap() {
				boots++
			}
		}
		if boots != 4 {
			t.Fatalf("slice %d holds %d bootstraps, want 4", i, boots)
		}
	}

	sk, ck := keys(t)
	nl := adder4(t)
	p := mustPlan(t, nl)
	ex := NewShared(3, 16)
	defer ex.Close()
	key, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	rt := plan.NewRuntime(ck.Params.LWEDimension)
	in := append(bitsOf(6, 4), bitsOf(7, 4)...)
	if err := rt.Bind(p, EncryptInputs(sk, in)); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(context.Background(), key, p.Levels(), rt); err != nil {
		t.Fatal(err)
	}
	outs, err := rt.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	rt.Unbind()
	if got := uintOf(DecryptOutputs(sk, outs)); got != 13 {
		t.Fatalf("6+7 = %d", got)
	}
	var slices, spread int64
	for _, lv := range p.Levels() {
		slices += int64(len(ex.slices(lv)))
		if len(lv) > 1 {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("no level has two instructions; the run checks nothing")
	}
	if got := ex.Stats().TenantPicks[key.ID()]; got != slices {
		t.Fatalf("executor served %d slices, want %d", got, slices)
	}
}
