package exec_test

import (
	"slices"
	"testing"

	"pytfhe/internal/backend"
	"pytfhe/internal/exec"
	"pytfhe/internal/logic"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// TestBatcher pins the contract the three executors build on: free ops
// evaluate at once, bootstrapped ones join and are final after the dispatch
// that Do (at size) or Flush performs, every result is bit-exact with a
// single Eval, malformed ops are errors, and batch ≤ 1 allocates nothing.
func TestBatcher(t *testing.T) {
	sk, ck := keys(t)
	eng := gate.NewEngine(ck)
	in := backend.EncryptInputs(sk, []bool{true, false, true})
	a, b, c := in[0], in[1], in[2]
	fresh := func() *lwe.Sample { return lwe.NewSample(ck.Params.LWEDimension) }
	same := func(x, y *lwe.Sample) bool { return x.B == y.B && slices.Equal(x.A, y.A) }

	ops := []gate.Op{
		{TT: logic.TTOf(logic.NAND)},
		{TT: 0xE8, Arity: 3},        // majority
		{TT: logic.TTOf(logic.NOT)}, // free: never joins
		{TT: logic.TTOf(logic.XOR)},
		{TT: 0x6, Arity: 2}, // a ⊕ b as a LUT
	}
	want := make([]*lwe.Sample, len(ops))
	for i, op := range ops {
		want[i] = fresh()
		if err := exec.Eval(eng, op, want[i], a, b, c); err != nil {
			t.Fatal(err)
		}
	}

	bt := exec.NewBatcher(gate.NewEngine(ck), 3)
	got := make([]*lwe.Sample, len(ops))
	wantJoined := []bool{true, true, false, true, true}
	wantPending := []int{1, 2, 2, 0, 1} // the third bootstrapped op fills the batch
	for i, op := range ops {
		got[i] = fresh()
		joined, err := bt.Do(op, got[i], a, b, c)
		if err != nil || joined != wantJoined[i] || bt.Pending() != wantPending[i] {
			t.Fatalf("op %d: joined=%v pending=%d err=%v, want %v/%d", i, joined, bt.Pending(), err, wantJoined[i], wantPending[i])
		}
		if !joined && !same(got[i], want[i]) {
			t.Fatalf("op %d: free op not evaluated on the spot", i)
		}
	}
	if bt.Batches != 1 {
		t.Fatalf("%d dispatches after a full batch, want 1", bt.Batches)
	}
	if err := bt.Flush(); err != nil || bt.Pending() != 0 || bt.Batches != 2 {
		t.Fatalf("flush: err=%v pending=%d batches=%d", err, bt.Pending(), bt.Batches)
	}
	for i := range ops {
		if !same(got[i], want[i]) {
			t.Fatalf("op %d: batched result differs from a single Eval", i)
		}
	}

	for _, bad := range []gate.Op{{TT: logic.NumKinds}, {TT: 200}, {TT: 0x1, Arity: logic.MaxLUTArity + 1}} {
		if _, err := bt.Do(bad, fresh(), a, b, c); err == nil {
			t.Fatalf("malformed op %+v evaluated", bad)
		}
	}

	one := exec.NewBatcher(eng, 1)
	out := fresh()
	if n := testing.AllocsPerRun(5, func() {
		if joined, err := one.Do(gate.Op{TT: logic.TTOf(logic.NAND)}, out, a, b, nil); joined || err != nil {
			t.Fatal(joined, err)
		}
	}); n != 0 {
		t.Fatalf("batch-1 Do allocates %.0f times per gate", n)
	}
}
