package backend

import (
	"sort"
	"testing"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/sched"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/trand"
)

func TestAsyncBackendHomomorphic(t *testing.T) {
	sk, ck := keys(t)
	nl := adder4(t)
	for _, workers := range []int{1, 2, 4} {
		be := NewAsync(ck, workers, 1)
		in := append(bitsOf(13, 4), bitsOf(9, 4)...)
		outs, err := be.Run(nl, EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		got := uintOf(DecryptOutputs(sk, outs))
		if got != 22 {
			t.Fatalf("async(%d): 13+9 = %d", workers, got)
		}
		st := be.Stats
		if st.Bootstraps == 0 || st.GatesPerSec <= 0 {
			t.Fatalf("async(%d): stats not recorded: %+v", workers, st)
		}
		if st.Workers != workers {
			t.Fatalf("async(%d): workers recorded as %d", workers, st.Workers)
		}
		if st.WorkerBusy <= 0 || st.Utilization <= 0 || st.Utilization > 1.0001 {
			t.Fatalf("async(%d): utilization breakdown wrong: %+v", workers, st)
		}
		if st.QueueWait < 0 || st.AvgQueueWait < 0 {
			t.Fatalf("async(%d): queue wait negative: %+v", workers, st)
		}
	}
}

func TestAsyncConstAndEchoOutputs(t *testing.T) {
	sk, ck := keys(t)
	b := circuit.NewBuilder("consts", circuit.AllOptimizations())
	x := b.Input("x")
	b.Output("one", b.Xnor(x, x))
	b.Output("echo", x)
	nl := b.MustBuild()
	be := NewAsync(ck, 2, 1)
	outs, err := be.Run(nl, EncryptInputs(sk, []bool{false}))
	if err != nil {
		t.Fatal(err)
	}
	got := DecryptOutputs(sk, outs)
	if got[0] != true || got[1] != false {
		t.Fatalf("const outputs = %v", got)
	}
}

func TestAsyncInputValidation(t *testing.T) {
	_, ck := keys(t)
	nl := adder4(t)
	be := NewAsync(ck, 2, 1)
	if _, err := be.Run(nl, nil); err == nil {
		t.Fatal("missing inputs not rejected")
	}
	if _, err := be.Run(nl, TrivialInputs(3, bitsOf(0, 8))); err == nil {
		t.Fatal("wrong dimension not rejected")
	}
}

// TestAsyncMatchesSimulatedMakespan calibrates sched.SimulateAsync against
// the real executor: with the measured single-gate cost plugged into the
// LocalPool platform, the simulator's predicted makespan must fall within a
// factor of 3 of backend.Async's measured wall clock (stated tolerance —
// generous because CI machines jitter, but tight enough that a simulator
// predicting wavefront-barrier behaviour, or ignoring the critical path,
// fails).
func TestAsyncMatchesSimulatedMakespan(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs wall-clock measurements")
	}
	sk, ck := keys(t)

	// A deep-and-wide netlist: 4 independent 8-gate chains, so 2 workers
	// are busy but the barrier-free schedule matters.
	b := circuit.NewBuilder("calib", circuit.NoOptimizations())
	ins := b.Inputs("x", 5)
	for c := 0; c < 4; c++ {
		cur := ins[c]
		for d := 0; d < 8; d++ {
			cur = b.Gate(logic.NAND, cur, ins[4])
		}
		b.Output("o", cur)
	}
	nl := b.MustBuild()

	// Measure the single-core bootstrapped-gate cost with a dedicated
	// engine (median of a few samples).
	eng := gate.NewEngine(ck)
	rng := trand.NewSeeded([]byte("calib"))
	x := gate.NewCiphertext(ck.Params)
	y := gate.NewCiphertext(ck.Params)
	out := gate.NewCiphertext(ck.Params)
	gate.Encrypt(x, true, sk, rng)
	gate.Encrypt(y, false, sk, rng)
	const samples = 5
	times := make([]time.Duration, samples)
	for i := range times {
		t0 := time.Now()
		if err := eng.Binary(logic.NAND, out, x, y); err != nil {
			t.Fatal(err)
		}
		times[i] = time.Since(t0)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	gt := times[samples/2] // median damps warm-up and GC outliers

	const workers = 2
	predicted := sched.SimulateAsync(nl, sched.LocalPool(workers, gt)).Makespan

	be := NewAsync(ck, workers, 1)
	in := make([]bool, nl.NumInputs)
	if _, err := be.Run(nl, EncryptInputs(sk, in)); err != nil {
		t.Fatal(err)
	}
	measured := be.Stats.Elapsed

	ratio := float64(measured) / float64(predicted)
	if ratio < 1.0/3 || ratio > 3 {
		t.Fatalf("measured %v vs predicted %v (ratio %.2f, tolerance 3x): simulator out of calibration", measured, predicted, ratio)
	}
}
