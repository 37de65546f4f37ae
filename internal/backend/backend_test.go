package backend

import (
	"sync"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/trand"
)

var (
	keyOnce sync.Once
	testSK  *boot.SecretKey
	testCK  *boot.CloudKey
)

func keys(t testing.TB) (*boot.SecretKey, *boot.CloudKey) {
	keyOnce.Do(func() {
		rng := trand.NewSeeded([]byte("backend-test-keys"))
		sk, ck, err := boot.GenerateKeys(params.Test(), rng)
		if err != nil {
			panic(err)
		}
		testSK, testCK = sk, ck
	})
	return testSK, testCK
}

// fullAdder4 builds a 4-bit ripple adder netlist.
func adder4(t testing.TB) *circuit.Netlist {
	t.Helper()
	b := circuit.NewBuilder("adder4", circuit.AllOptimizations())
	a := b.Inputs("a", 4)
	bb := b.Inputs("b", 4)
	carry := b.Const(false)
	for i := 0; i < 4; i++ {
		axb := b.Xor(a[i], bb[i])
		sum := b.Xor(axb, carry)
		carry = b.Or(b.And(a[i], bb[i]), b.And(axb, carry))
		b.Output("s", sum)
	}
	b.Output("cout", carry)
	return b.MustBuild()
}

// nandChains builds chains independent NAND chains of the given depth:
// slack for several workers, deep enough that scheduling matters. Every
// gate reads an input of its own, so no two gates compute the same
// function and plan deduplication leaves the netlist whole (a chain that
// NANDs with one fixed input repeats its function every second step).
func nandChains(chains, depth int) *circuit.Netlist {
	b := circuit.NewBuilder("nand-chains", circuit.NoOptimizations())
	ins := b.Inputs("x", chains*(depth+1))
	for c := 0; c < chains; c++ {
		own := ins[c*(depth+1) : (c+1)*(depth+1)]
		cur := own[0]
		for d := 1; d <= depth; d++ {
			cur = b.Gate(logic.NAND, cur, own[d])
		}
		b.Output("o", cur)
	}
	return b.MustBuild()
}

func bitsOf(v uint64, n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = v>>uint(i)&1 == 1
	}
	return bits
}

func uintOf(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

func TestPlainBackend(t *testing.T) {
	nl := adder4(t)
	for _, tc := range [][2]uint64{{3, 5}, {15, 1}, {0, 0}, {9, 9}} {
		in := append(bitsOf(tc[0], 4), bitsOf(tc[1], 4)...)
		outs, err := Plain{}.Run(nl, TrivialInputs(8, in))
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]bool, len(outs))
		for i, ct := range outs {
			bits[i] = int32(ct.B) > 0 // trivial samples decode by sign
		}
		got := uintOf(bits)
		if got != tc[0]+tc[1] {
			t.Fatalf("%d+%d = %d", tc[0], tc[1], got)
		}
	}
}

func TestSingleBackendHomomorphic(t *testing.T) {
	sk, ck := keys(t)
	nl := adder4(t)
	be := NewSingle(ck)
	for _, tc := range [][2]uint64{{3, 5}, {7, 9}, {15, 15}} {
		in := append(bitsOf(tc[0], 4), bitsOf(tc[1], 4)...)
		outs, err := be.Run(nl, EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		got := uintOf(DecryptOutputs(sk, outs))
		if got != tc[0]+tc[1] {
			t.Fatalf("homomorphic %d+%d = %d", tc[0], tc[1], got)
		}
	}
	if be.Stats.Bootstraps == 0 || be.Stats.GatesPerSec <= 0 {
		t.Fatalf("stats not recorded: %+v", be.Stats)
	}
}

func TestPoolBackendHomomorphic(t *testing.T) {
	sk, ck := keys(t)
	nl := adder4(t)
	for _, workers := range []int{1, 2, 4} {
		be := NewPool(ck, workers)
		t.Cleanup(be.Close)
		in := append(bitsOf(11, 4), bitsOf(6, 4)...)
		outs, err := be.Run(nl, EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		got := uintOf(DecryptOutputs(sk, outs))
		if got != 17 {
			t.Fatalf("pool(%d): 11+6 = %d", workers, got)
		}
		if be.Stats.Levels == 0 {
			t.Fatalf("pool(%d): levels not recorded", workers)
		}
	}
}

// cpuBackends returns one of each keyed CPU backend constructor — Single,
// Pool and Planned, the latter two at two workers — and closes the worker
// sets when the test ends.
func cpuBackends(t *testing.T, ck *boot.CloudKey) []Backend {
	pool, planned := NewPool(ck, 2), NewPlanned(ck, 2, 1)
	t.Cleanup(pool.Close)
	t.Cleanup(planned.Close)
	return []Backend{NewSingle(ck), pool, planned}
}

func TestInputValidation(t *testing.T) {
	_, ck := keys(t)
	nl := adder4(t)
	for _, be := range cpuBackends(t, ck) {
		if _, err := be.Run(nl, nil); err == nil {
			t.Fatalf("%s: missing inputs not rejected", be.Name())
		}
		bad := TrivialInputs(3, bitsOf(0, 8)) // wrong dimension
		if _, err := be.Run(nl, bad); err == nil {
			t.Fatalf("%s: wrong dimension not rejected", be.Name())
		}
	}
}

// TestConstOutputBackends: an output folded to a constant and an output
// that echoes a primary input come back as fresh ciphertexts from every
// executor.
func TestConstOutputBackends(t *testing.T) {
	sk, ck := keys(t)
	b := circuit.NewBuilder("consts", circuit.AllOptimizations())
	x := b.Input("x")
	b.Output("one", b.Xnor(x, x))
	b.Output("echo", x)
	nl := b.MustBuild()
	for _, be := range cpuBackends(t, ck) {
		outs, err := be.Run(nl, EncryptInputs(sk, []bool{false}))
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		got := DecryptOutputs(sk, outs)
		if got[0] != true || got[1] != false {
			t.Fatalf("%s: const outputs = %v", be.Name(), got)
		}
	}
}
