package backend

import (
	"testing"

	"pytfhe/internal/circuit"
)

// The TestAsync* tests drive NewAsyncSched, the constructor bench's
// hamming128_local builds its backend with. It yields a Planned run, so
// each test holds that entry point to what Async used to guarantee:
// correct sums and a per-run utilization breakdown at 1, 2 and 4 workers,
// fresh ciphertexts for constant and echoed outputs, and rejected inputs.

func TestAsyncBackendHomomorphic(t *testing.T) {
	sk, ck := keys(t)
	nl := adder4(t)
	for _, workers := range []int{1, 2, 4} {
		be := NewAsyncSched(ck, workers, SchedCritical)
		defer be.Close()
		in := append(bitsOf(13, 4), bitsOf(9, 4)...)
		outs, err := be.Run(nl, EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		got := uintOf(DecryptOutputs(sk, outs))
		if got != 22 {
			t.Fatalf("async-sched(%d): 13+9 = %d", workers, got)
		}
		st := be.Stats
		if st.Bootstraps == 0 || st.GatesPerSec <= 0 {
			t.Fatalf("async-sched(%d): stats not recorded: %+v", workers, st)
		}
		if st.Workers != workers {
			t.Fatalf("async-sched(%d): workers recorded as %d", workers, st.Workers)
		}
		if st.WorkerBusy <= 0 || st.Utilization <= 0 || st.Utilization > 1.0001 {
			t.Fatalf("async-sched(%d): utilization breakdown wrong: %+v", workers, st)
		}
		if st.QueueWait < 0 || st.AvgQueueWait < 0 {
			t.Fatalf("async-sched(%d): queue wait negative: %+v", workers, st)
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
	be := NewAsyncSched(ck, 2, SchedCritical)
	defer be.Close()
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
	be := NewAsyncSched(ck, 2, SchedCritical)
	defer be.Close()
	if _, err := be.Run(nl, nil); err == nil {
		t.Fatal("missing inputs not rejected")
	}
	if _, err := be.Run(nl, TrivialInputs(3, bitsOf(0, 8))); err == nil {
		t.Fatal("wrong dimension not rejected")
	}
}
