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

// aliasMember is one batch member whose operands index a shared sample
// table: entry m is member m's output, the entries after the members are
// operands no member writes. c is read only by arity-3 LUTs.
type aliasMember struct {
	op      Op
	a, b, c int
}

// checkAliasedBatch runs one batch whose outputs alias operands through the
// sample table and requires every member to be bit-exact with a single
// Binary/LUT call on copies of the original operands.
func checkAliasedBatch(t *testing.T, ms []aliasMember, batch func(e *Engine, ops []Op, dst, a, b, c []*Ciphertext) error) {
	t.Helper()
	sk, ck := keys(t)
	rng := trand.NewSeeded([]byte("gate-batch-alias"))
	n := len(ms)
	vals := make([]*Ciphertext, n+3)
	orig := make([]*Ciphertext, len(vals))
	for i := range vals {
		vals[i] = NewCiphertext(sk.Params)
		Encrypt(vals[i], i%3 != 1, sk, rng)
		orig[i] = NewCiphertext(sk.Params)
		orig[i].Copy(vals[i])
	}
	single := NewEngine(ck)
	ops, want := make([]Op, n), make([]*Ciphertext, n)
	dst, a, b, c := make([]*Ciphertext, n), make([]*Ciphertext, n), make([]*Ciphertext, n), make([]*Ciphertext, n)
	for m, mb := range ms {
		ops[m], want[m] = mb.op, NewCiphertext(sk.Params)
		var err error
		if mb.op.IsLUT() {
			ins := []*Ciphertext{orig[mb.a], orig[mb.b], orig[mb.c]}
			err = single.LUT(int(mb.op.Arity), mb.op.TT, want[m], ins[:mb.op.Arity]...)
		} else {
			err = single.Binary(mb.op.Kind, want[m], orig[mb.a], orig[mb.b])
		}
		if err != nil {
			t.Fatal(err)
		}
		dst[m], a[m], b[m] = vals[m], vals[mb.a], vals[mb.b]
		if mb.op.Arity >= 3 {
			c[m] = vals[mb.c]
		}
	}
	if err := batch(NewEngine(ck), ops, dst, a, b, c); err != nil {
		t.Fatal(err)
	}
	for m, mb := range ms {
		if !samplesEqual(dst[m], want[m]) {
			t.Errorf("member %d (%+v): aliased batch result not bit-exact with the single path", m, mb.op)
		}
	}
}

// TestBatchOutputsMayAliasOperands: a member's output may be its own a, b
// or c, or another member's operand, because OpBatch and BinaryBatch fold
// every operand into engine scratch before writing any output.
func TestBatchOutputsMayAliasOperands(t *testing.T) {
	t.Run("OpBatch", func(t *testing.T) {
		checkAliasedBatch(t, []aliasMember{
			{op: Op{Kind: logic.AND}, a: 0, b: 6},                    // dst == a
			{op: Op{Kind: logic.XOR}, a: 7, b: 1},                    // dst == b
			{op: Op{TT: 0xE8, Arity: 3}, a: 3, b: 4, c: 2},           // dst == c; a, b are members 3 and 4's outputs
			{op: Op{Kind: logic.NAND}, a: 5, b: 0},                   // reads members 5 and 0's outputs
			{op: Op{TT: logic.TTOf(logic.OR), Arity: 2}, a: 1, b: 4}, // dst == b; a is member 1's output
			{op: Op{Kind: logic.NOR}, a: 2, b: 8},                    // a is member 2's output
		}, (*Engine).OpBatch)
	})
	t.Run("BinaryBatch", func(t *testing.T) {
		checkAliasedBatch(t, []aliasMember{
			{op: Op{Kind: logic.AND}, a: 0, b: 4},  // dst == a
			{op: Op{Kind: logic.XOR}, a: 5, b: 1},  // dst == b
			{op: Op{Kind: logic.NAND}, a: 1, b: 0}, // reads members 1 and 0's outputs
			{op: Op{Kind: logic.OR}, a: 2, b: 3},   // dst == b; a is member 2's output
		}, func(e *Engine, ops []Op, dst, a, b, _ []*Ciphertext) error {
			kinds := make([]logic.Kind, len(ops))
			for m, op := range ops {
				kinds[m] = op.Kind
			}
			return e.BinaryBatch(kinds, dst, a, b)
		})
	})
}
