package gate

import (
	"testing"

	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/trand"
)

// TestBinaryBatchMatchesBinary checks that one batched dispatch over all ten
// bootstrapped kinds is bit-exact with per-gate Binary on the same inputs.
func TestBinaryBatchMatchesBinary(t *testing.T) {
	rng := trand.NewSeeded([]byte("gate-batch"))
	p := params.Test()
	sk, ck, err := boot.GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	single := NewEngine(ck)
	batched := NewEngine(ck)

	kinds := []logic.Kind{logic.AND, logic.NAND, logic.OR, logic.NOR, logic.XOR,
		logic.XNOR, logic.ANDNY, logic.ANDYN, logic.ORNY, logic.ORYN}
	n := len(kinds)
	a := make([]*Ciphertext, n)
	b := make([]*Ciphertext, n)
	want := make([]*Ciphertext, n)
	got := make([]*Ciphertext, n)
	for m := 0; m < n; m++ {
		a[m] = NewCiphertext(p)
		b[m] = NewCiphertext(p)
		Encrypt(a[m], m%2 == 0, sk, rng)
		Encrypt(b[m], m%3 == 0, sk, rng)
		want[m] = NewCiphertext(p)
		got[m] = NewCiphertext(p)
		if err := single.Binary(kinds[m], want[m], a[m], b[m]); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.BinaryBatch(kinds, got, a, b); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < n; m++ {
		if got[m].B != want[m].B {
			t.Fatalf("kind %v: body %#x, want %#x", kinds[m], got[m].B, want[m].B)
		}
		for i := range want[m].A {
			if got[m].A[i] != want[m].A[i] {
				t.Fatalf("kind %v mask %d: %#x, want %#x", kinds[m], i, got[m].A[i], want[m].A[i])
			}
		}
		// Semantics: decrypt and compare against the boolean truth table.
		wantBit := kinds[m].Eval(m%2 == 0, m%3 == 0)
		if Decrypt(got[m], sk) != wantBit {
			t.Fatalf("kind %v decrypts to %v, want %v", kinds[m], !wantBit, wantBit)
		}
	}
}

// TestBinaryBatchRejectsFreeKinds ensures linear kinds are refused: the
// caller must evaluate them inline instead of spending a batch slot.
func TestBinaryBatchRejectsFreeKinds(t *testing.T) {
	rng := trand.NewSeeded([]byte("gate-batch-free"))
	p := params.Test()
	_, ck, err := boot.GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ck)
	c := NewCiphertext(p)
	one := []*Ciphertext{c}
	if err := e.BinaryBatch([]logic.Kind{logic.NOT}, one, one, one); err == nil {
		t.Fatal("free kind accepted")
	}
	if err := e.BinaryBatch([]logic.Kind{logic.AND}, one, one, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestBatchBootstrapCount checks the combined profile counter.
func TestBatchBootstrapCount(t *testing.T) {
	rng := trand.NewSeeded([]byte("gate-batch-count"))
	p := params.Test()
	sk, ck, err := boot.GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ck)
	e.Eval.Profile = true
	a := NewCiphertext(p)
	b := NewCiphertext(p)
	Encrypt(a, true, sk, rng)
	Encrypt(b, false, sk, rng)
	out := NewCiphertext(p)
	if err := e.Binary(logic.NAND, out, a, b); err != nil {
		t.Fatal(err)
	}
	kinds := []logic.Kind{logic.AND, logic.OR, logic.XOR}
	outs := []*Ciphertext{NewCiphertext(p), NewCiphertext(p), NewCiphertext(p)}
	ins := []*Ciphertext{a, a, a}
	ins2 := []*Ciphertext{b, b, b}
	if err := e.BinaryBatch(kinds, outs, ins, ins2); err != nil {
		t.Fatal(err)
	}
	if got := e.BootstrapCount(); got != 4 {
		t.Fatalf("BootstrapCount = %d, want 4", got)
	}
	// Only the BinaryBatch dispatch counts as a batch; the single Binary
	// call does not dilute the fill.
	if prof := e.Eval.Prof; prof.Batches != 1 || prof.BatchedGates != 3 {
		t.Fatalf("batch profile = %+v", prof)
	}
}
