package gate

import (
	"math"
	"sync"
	"testing"
	"time"

	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/trand"
)

// testKeys are generated once and shared: key generation dominates the cost
// of this package's tests.
var (
	keyOnce sync.Once
	testSK  *boot.SecretKey
	testCK  *boot.CloudKey
)

func keys(t testing.TB) (*boot.SecretKey, *boot.CloudKey) {
	keyOnce.Do(func() {
		rng := trand.NewSeeded([]byte("gate-test-keys"))
		sk, ck, err := boot.GenerateKeys(params.Test(), rng)
		if err != nil {
			panic(err)
		}
		testSK, testCK = sk, ck
	})
	return testSK, testCK
}

func TestEncryptDecryptBit(t *testing.T) {
	sk, _ := keys(t)
	rng := trand.NewSeeded([]byte("bits"))
	ct := NewCiphertext(sk.Params)
	for i := 0; i < 32; i++ {
		bit := i%3 == 0
		Encrypt(ct, bit, sk, rng)
		if got := Decrypt(ct, sk); got != bit {
			t.Fatalf("round trip %v -> %v", bit, got)
		}
	}
}

func TestTrivialCiphertext(t *testing.T) {
	sk, _ := keys(t)
	ct := NewCiphertext(sk.Params)
	Trivial(ct, true)
	if !Decrypt(ct, sk) {
		t.Fatal("trivial true decrypted as false")
	}
	Trivial(ct, false)
	if Decrypt(ct, sk) {
		t.Fatal("trivial false decrypted as true")
	}
}

// TestAllBinaryGates evaluates every kind in the gate alphabet on all four
// input combinations and checks the homomorphic result against the truth
// table.
func TestAllBinaryGates(t *testing.T) {
	sk, ck := keys(t)
	rng := trand.NewSeeded([]byte("all-gates"))
	eng := NewEngine(ck)
	ca := NewCiphertext(sk.Params)
	cb := NewCiphertext(sk.Params)
	out := NewCiphertext(sk.Params)

	for kind := logic.Kind(0); kind < logic.NumKinds; kind++ {
		for _, a := range []bool{false, true} {
			for _, b := range []bool{false, true} {
				Encrypt(ca, a, sk, rng)
				Encrypt(cb, b, sk, rng)
				if err := eng.Binary(kind, out, ca, cb); err != nil {
					t.Fatalf("%v(%v,%v): %v", kind, a, b, err)
				}
				want := kind.Eval(a, b)
				if got := Decrypt(out, sk); got != want {
					t.Errorf("%v(%v,%v) = %v, want %v", kind, a, b, got, want)
				}
			}
		}
	}
}

func TestGateChaining(t *testing.T) {
	// A NAND-only chain exercises noise refresh across sequential
	// bootstraps: out = NAND(NAND(a,a), NAND(b,b)) = a OR b.
	sk, ck := keys(t)
	rng := trand.NewSeeded([]byte("chain"))
	eng := NewEngine(ck)
	ca := NewCiphertext(sk.Params)
	cb := NewCiphertext(sk.Params)
	na := NewCiphertext(sk.Params)
	nb := NewCiphertext(sk.Params)
	out := NewCiphertext(sk.Params)
	for _, a := range []bool{false, true} {
		for _, b := range []bool{false, true} {
			Encrypt(ca, a, sk, rng)
			Encrypt(cb, b, sk, rng)
			if err := eng.Binary(logic.NAND, na, ca, ca); err != nil {
				t.Fatal(err)
			}
			if err := eng.Binary(logic.NAND, nb, cb, cb); err != nil {
				t.Fatal(err)
			}
			if err := eng.Binary(logic.NAND, out, na, nb); err != nil {
				t.Fatal(err)
			}
			if got := Decrypt(out, sk); got != (a || b) {
				t.Errorf("NAND-composed OR(%v,%v) = %v", a, b, got)
			}
		}
	}
}

func TestDeepNANDChain(t *testing.T) {
	if testing.Short() {
		t.Skip("deep chain skipped in -short mode")
	}
	// 64 sequential bootstraps: the output must stay correct, demonstrating
	// unbounded depth (the defining property of gate bootstrapping).
	sk, ck := keys(t)
	rng := trand.NewSeeded([]byte("deep"))
	eng := NewEngine(ck)
	ct := NewCiphertext(sk.Params)
	Encrypt(ct, true, sk, rng)
	cur := true
	for i := 0; i < 64; i++ {
		if err := eng.Binary(logic.NAND, ct, ct, ct); err != nil {
			t.Fatal(err)
		}
		cur = !cur // NAND(x, x) = ¬x
		if got := Decrypt(ct, sk); got != cur {
			t.Fatalf("step %d: got %v want %v", i, got, cur)
		}
	}
}

func TestMux(t *testing.T) {
	sk, ck := keys(t)
	rng := trand.NewSeeded([]byte("mux"))
	eng := NewEngine(ck)
	sel := NewCiphertext(sk.Params)
	ca := NewCiphertext(sk.Params)
	cb := NewCiphertext(sk.Params)
	out := NewCiphertext(sk.Params)
	for _, s := range []bool{false, true} {
		for _, a := range []bool{false, true} {
			for _, b := range []bool{false, true} {
				Encrypt(sel, s, sk, rng)
				Encrypt(ca, a, sk, rng)
				Encrypt(cb, b, sk, rng)
				if err := eng.Mux(out, sel, ca, cb); err != nil {
					t.Fatal(err)
				}
				want := b
				if s {
					want = a
				}
				if got := Decrypt(out, sk); got != want {
					t.Errorf("mux(%v,%v,%v) = %v, want %v", s, a, b, got, want)
				}
			}
		}
	}
}

func TestProfileAccumulates(t *testing.T) {
	sk, ck := keys(t)
	rng := trand.NewSeeded([]byte("profile"))
	eng := NewEngine(ck)
	eng.Eval.Profile = true
	ca := NewCiphertext(sk.Params)
	cb := NewCiphertext(sk.Params)
	out := NewCiphertext(sk.Params)
	Encrypt(ca, true, sk, rng)
	Encrypt(cb, false, sk, rng)
	// The dominance check compares each phase's fastest gate, not a sum: a
	// blind rotation is ~1 ms at Test parameters, so one OS preemption
	// inside a key switch would flip a three-gate total.
	const gates = 15
	minBR, minKS := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < gates; i++ {
		before := eng.Eval.Prof
		if err := eng.Binary(logic.NAND, out, ca, cb); err != nil {
			t.Fatal(err)
		}
		minBR = min(minBR, eng.Eval.Prof.BlindRotate-before.BlindRotate)
		minKS = min(minKS, eng.Eval.Prof.KeySwitch-before.KeySwitch)
	}
	prof := eng.Eval.Prof
	if minBR <= 0 || minKS <= 0 || prof.BlindRotate < gates*minBR || prof.KeySwitch < gates*minKS {
		t.Fatalf("phase times do not accumulate: %+v (fastest gate: blind rotate %v, key switch %v)", prof, minBR, minKS)
	}
	if minBR <= minKS {
		t.Errorf("blind rotation (%v) should dominate key switching (%v), as in Fig. 7", minBR, minKS)
	}
}

func BenchmarkBootstrappedNAND(b *testing.B) {
	sk, ck := keys(b)
	rng := trand.NewSeeded([]byte("bench"))
	eng := NewEngine(ck)
	ca := NewCiphertext(sk.Params)
	cb := NewCiphertext(sk.Params)
	out := NewCiphertext(sk.Params)
	Encrypt(ca, true, sk, rng)
	Encrypt(cb, false, sk, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Binary(logic.NAND, out, ca, cb); err != nil {
			b.Fatal(err)
		}
	}
}
