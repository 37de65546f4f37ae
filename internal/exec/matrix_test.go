package exec_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/trand"
)

var (
	keyOnce sync.Once
	testSK  *boot.SecretKey
	testCK  *boot.CloudKey
)

func keys(t testing.TB) (*boot.SecretKey, *boot.CloudKey) {
	keyOnce.Do(func() {
		rng := trand.NewSeeded([]byte("exec-matrix-keys"))
		sk, ck, err := boot.GenerateKeys(params.Test(), rng)
		if err != nil {
			panic(err)
		}
		testSK, testCK = sk, ck
	})
	return testSK, testCK
}

// randomDeepNetlist builds a randomized DAG whose outputs include nodes that
// are *also* operands of later gates — the shape that catches a recycler
// freeing a result before output collection reads it.
func randomDeepNetlist(rng *rand.Rand, nGates int) *circuit.Netlist {
	b := circuit.NewBuilder("rand-deep", circuit.NoOptimizations())
	nodes := []circuit.NodeID{b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d"), b.Input("e")}
	for i := 0; i < nGates-1; i++ {
		kind := logic.TFHEGates()[rng.Intn(11)]
		// Bias toward recent nodes so the DAG gets deep and irregular.
		var x circuit.NodeID
		if rng.Intn(2) == 0 {
			x = nodes[len(nodes)-1]
		} else {
			x = nodes[rng.Intn(len(nodes))]
		}
		y := nodes[rng.Intn(len(nodes))]
		nodes = append(nodes, b.Gate(kind, x, y))
	}
	// An output that is also an interior operand: the final gate reads mid,
	// and mid is exported as an output alongside the final gate itself.
	mid := nodes[len(nodes)/2]
	last := b.Gate(logic.AND, mid, nodes[len(nodes)-1])
	b.Output("mid", mid)
	b.Output("last", last)
	b.Output("other", nodes[len(nodes)-2])
	return b.MustBuild()
}

// TestMatrixAgreement is the combinatorial agreement test the execution
// core makes possible: every way a netlist runs in process (Single's
// sequential replay, the slice-scheduled Planned at batch {1, 2, 8}, batch
// 1 being the pool backend) × worker counts {1, 2, 3, 4, 7} must decrypt
// bit-identically to the plaintext reference on randomized netlists whose
// outputs are also interior gate operands. Every one of them replays a
// plan whose arena slots recycle through the Arena.
func TestMatrixAgreement(t *testing.T) {
	sk, ck := keys(t)
	rng := rand.New(rand.NewSource(1234))
	workerCounts := []int{1, 2, 3, 4, 7}

	for trial := 0; trial < 2; trial++ {
		nl := randomDeepNetlist(rng, 14)
		in := make([]bool, nl.NumInputs)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		want, err := nl.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, outs []*lwe.Sample, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s trial %d: %v", label, trial, err)
			}
			got := backend.DecryptOutputs(sk, outs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d output %d: got %v want %v", label, trial, i, got[i], want[i])
				}
			}
		}

		outs, err := backend.NewSingle(ck).Run(nl, backend.EncryptInputs(sk, in))
		check("single", outs, err)

		for _, w := range workerCounts {
			for _, batch := range []int{1, 2, 8} {
				planned := backend.NewPlanned(ck, w, batch)
				outs, err := planned.Run(nl, backend.EncryptInputs(sk, in))
				planned.Close()
				check(fmt.Sprintf("plan-b%d/%dw", batch, w), outs, err)
				stats := planned.Stats
				if (stats.Batches > 0) != (batch > 1) {
					t.Fatalf("plan-b%d/%dw recorded %d batches", batch, w, stats.Batches)
				}
				if stats.BatchedBootstraps > planned.PlanStats.ExecBootstraps {
					t.Fatalf("plan-b%d/%dw: %d batched bootstraps, %d executed",
						batch, w, stats.BatchedBootstraps, planned.PlanStats.ExecBootstraps)
				}
			}
		}
	}
}

// TestBackendsAgreeWithPlain runs all four CPU backends through their
// public API against the Plain reference — the end-to-end proof that every
// backend really executes through the shared core.
func TestBackendsAgreeWithPlain(t *testing.T) {
	sk, ck := keys(t)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2; trial++ {
		nl := randomDeepNetlist(rng, 12)
		in := make([]bool, nl.NumInputs)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		plainOuts, err := backend.Plain{}.Run(nl, backend.TrivialInputs(ck.Params.LWEDimension, in))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]bool, len(plainOuts))
		for i, ct := range plainOuts {
			want[i] = int32(ct.B) > 0 // trivial samples decode by sign
		}

		backends := []backend.Backend{backend.NewSingle(ck)}
		for _, w := range []int{1, 2, 4} {
			pool, planned := backend.NewPool(ck, w), backend.NewPlanned(ck, w, 1)
			t.Cleanup(pool.Close)
			t.Cleanup(planned.Close)
			backends = append(backends, pool, planned)
		}
		for _, be := range backends {
			outs, err := be.Run(nl, backend.EncryptInputs(sk, in))
			if err != nil {
				t.Fatalf("%s: %v", be.Name(), err)
			}
			got := backend.DecryptOutputs(sk, outs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d output %d: got %v want %v", be.Name(), trial, i, got[i], want[i])
				}
			}
		}

		sh := backend.NewShared(2, 1)
		key, err := sh.RegisterKey(ck)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := plan.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		outs, _, err := sh.Submit(context.Background(), key, compiled, backend.EncryptInputs(sk, in))
		sh.Close()
		if err != nil {
			t.Fatalf("shared: %v", err)
		}
		got := backend.DecryptOutputs(sk, outs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shared trial %d output %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestNilInputRejectedEverywhere: a nil ciphertext among the inputs used
// to panic inside checkInputs; every backend must now return the typed
// exec.ErrNilInput instead.
func TestNilInputRejectedEverywhere(t *testing.T) {
	sk, ck := keys(t)
	b := circuit.NewBuilder("nil-in", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	b.Output("o", b.Gate(logic.NAND, x, y))
	nl := b.MustBuild()

	good := backend.EncryptInputs(sk, []bool{true, false})
	bad := []*lwe.Sample{good[0], nil}

	runs := []struct {
		name string
		run  func() error
	}{
		{"plain", func() error { _, err := backend.Plain{}.Run(nl, bad); return err }},
		{"single", func() error { _, err := backend.NewSingle(ck).Run(nl, bad); return err }},
		{"pool", func() error {
			p := backend.NewPool(ck, 2)
			t.Cleanup(p.Close)
			_, err := p.Run(nl, bad)
			return err
		}},
		{"plan", func() error {
			p := backend.NewPlanned(ck, 2, 1)
			defer p.Close()
			_, err := p.Run(nl, bad)
			return err
		}},
		{"shared", func() error {
			sh := backend.NewShared(1, 1)
			defer sh.Close()
			key, err := sh.RegisterKey(ck)
			if err != nil {
				return err
			}
			compiled, err := plan.Compile(nl)
			if err != nil {
				return err
			}
			_, _, err = sh.Submit(context.Background(), key, compiled, bad)
			return err
		}},
	}
	for _, tc := range runs {
		if err := tc.run(); !errors.Is(err, exec.ErrNilInput) {
			t.Fatalf("%s: error = %v, want exec.ErrNilInput", tc.name, err)
		}
		if err := tc.run(); !errors.Is(err, backend.ErrNilInput) {
			t.Fatalf("%s: backend.ErrNilInput alias must match too (got %v)", tc.name, err)
		}
	}
}
