package circuit

import (
	"errors"
	"math/rand"
	"testing"

	"pytfhe/internal/logic"
)

// TestBuilderGrowAllocatesNothing checks the reservation: after Grow(n),
// emitting n gates through Builder.Gate neither regrows the gate slice nor
// the CSE table, with CSE on and off.
func TestBuilderGrowAllocatesNothing(t *testing.T) {
	for _, opts := range []BuilderOptions{AllOptimizations(), NoOptimizations()} {
		const perRun, runs = 512, 4
		b := NewBuilder("grow", opts)
		ins := b.Inputs("x", 16)
		b.Grow(perRun * (runs + 1)) // AllocsPerRun adds one warm-up call
		x, i := ins[0], 0
		allocs := testing.AllocsPerRun(runs, func() {
			for k := 0; k < perRun; k++ {
				// Each gate reads the previous one, so all are distinct.
				x = b.Gate(logic.XOR, x, ins[1+i%15])
				i++
			}
		})
		if allocs != 0 {
			t.Errorf("%+v: %.1f allocations per %d reserved gates, want 0", opts, allocs, perRun)
		}
		if got := b.NumGates(); got != perRun*(runs+1) {
			t.Fatalf("%+v: emitted %d gates, want %d", opts, got, perRun*(runs+1))
		}
	}
}

// TestBuilderGrowKeepsCSE checks that growing a builder that already holds
// gates keeps its CSE table: re-requesting an existing gate still hits.
func TestBuilderGrowKeepsCSE(t *testing.T) {
	b := NewBuilder("grow", AllOptimizations())
	x, y := b.Input("x"), b.Input("y")
	g := b.And(x, y)
	b.Grow(100)
	if got := b.And(y, x); got != g || b.NumGates() != 1 {
		t.Fatalf("AND(y,x) after Grow = %d with %d gates, want %d with 1", got, b.NumGates(), g)
	}
}

// TestBuilderNodeIDBound checks that the builder refuses to name a node
// past MaxNodeID — the bound that keeps its packed CSE keys exact — with
// the ErrTooManyNodes panic instead of a silent key collision.
func TestBuilderNodeIDBound(t *testing.T) {
	expectBound := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if err, ok := r.(error); !ok || !errors.Is(err, ErrTooManyNodes) {
				t.Fatalf("%s: recovered %v, want ErrTooManyNodes", what, r)
			}
		}()
		f()
	}
	for _, opts := range []BuilderOptions{AllOptimizations(), NoOptimizations()} {
		b := NewBuilder("bound", opts)
		x, y := b.Input("x"), b.Input("y")
		// Pretend the builder already holds MaxNodeID-1 inputs, so only one
		// more node fits (white-box: emitting ~2^30 real nodes is too big).
		b.numInputs = MaxNodeID - 1
		last := b.And(x, y)
		if last != MaxNodeID {
			t.Fatalf("%+v: last gate id %d, want MaxNodeID %d", opts, last, MaxNodeID)
		}
		expectBound(t, "gate past the bound", func() { b.Or(x, last) })
		expectBound(t, "LUT past the bound", func() { b.LUT(0b10010110, x, y, last) })
	}
	b := NewBuilder("bound", AllOptimizations())
	b.Input("x")
	b.numInputs = MaxNodeID
	expectBound(t, "input past the bound", func() { b.Input("y") })
}

// TestBuilderRejectsKindOutsideAlphabet: a kind past the 16 functions
// would alias another in the packed key, so Gate refuses it.
func TestBuilderRejectsKindOutsideAlphabet(t *testing.T) {
	b := NewBuilder("kind", NoOptimizations())
	x, y := b.Input("x"), b.Input("y")
	defer func() {
		if recover() == nil {
			t.Fatal("Gate accepted kind 16")
		}
	}()
	b.Gate(logic.NumKinds, x, y)
}

// TestPackedKeysExact decodes packed CSE keys back into their fields over
// random and boundary ids: the packing loses nothing within the bound.
func TestPackedKeysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := []NodeID{1, 2, 1<<29 - 1, 1 << 29, MaxNodeID - 1, MaxNodeID}
	pick := func() NodeID {
		if rng.Intn(2) == 0 {
			return ids[rng.Intn(len(ids))]
		}
		return NodeID(1 + rng.Int63n(MaxNodeID))
	}
	const field = MaxNodeID
	for trial := 0; trial < 10000; trial++ {
		kind, a, b, c := logic.Kind(rng.Intn(logic.NumKinds)), pick(), pick(), pick()
		tt := logic.TT(rng.Intn(256))
		k := uint64(newGateKey(kind, a, b))
		if logic.Kind(k>>(2*idBits)) != kind || NodeID(k>>idBits&field) != a || NodeID(k&field) != b {
			t.Fatalf("gate key %#x does not decode to (%v, %d, %d)", k, kind, a, b)
		}
		lk := newLUTKey(tt, []NodeID{a, b, c})
		if NodeID(lk.ab>>idBits) != a || NodeID(lk.ab&field) != b ||
			NodeID(lk.ctt>>8) != c || logic.TT(lk.ctt) != tt {
			t.Fatalf("LUT key %+v does not decode to (%#x, %d, %d, %d)", lk, tt, a, b, c)
		}
	}
}
