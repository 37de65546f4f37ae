package circuit

import (
	"math/rand"
	"testing"

	"pytfhe/internal/logic"
)

// wordTable is a minimal hash-consing table over an Index: ids index keys,
// the record every candidate is confirmed against.
type wordTable struct {
	x    Index
	keys []uint64
}

// intern returns the id of k, adding it when it is new.
func (t *wordTable) intern(k uint64) (int32, bool) {
	p := t.x.Probe(t.x.HashWord(k))
	for {
		id, ok := t.x.Next(&p)
		if !ok {
			break
		}
		if t.keys[id] == k {
			return id, true
		}
	}
	id := int32(len(t.keys))
	t.keys = append(t.keys, k)
	t.x.Insert(&p, id)
	return id, false
}

// longestChain returns the longest run of occupied slots.
func (x *Index) longestChain() int {
	longest, run := 0, 0
	for _, s := range append(x.slots, x.slots...) { // wrap around once
		if s == 0 {
			run = 0
			continue
		}
		if run++; run > longest {
			longest = run
		}
	}
	return min(longest, len(x.slots))
}

// checkAgainstMap interns keys in t and in a Go map, and fails on the first
// disagreement.
func checkAgainstMap(t *testing.T, tab *wordTable, keys []uint64) {
	t.Helper()
	oracle := map[uint64]int32{}
	for i, k := range keys {
		id, seen := tab.intern(k)
		want, wantSeen := oracle[k]
		if !wantSeen {
			want = int32(len(oracle))
			oracle[k] = want
		}
		if id != want || seen != wantSeen {
			t.Fatalf("key %d (%#x): index says (%d, %v), map says (%d, %v)", i, k, id, seen, want, wantSeen)
		}
	}
	if tab.x.Len() != len(oracle) {
		t.Fatalf("index holds %d ids, map %d", tab.x.Len(), len(oracle))
	}
}

// TestIndexKeysSharingLowBits interns keys that differ only above bit 32
// (and, separately, only above bit 48): the seeded hash must spread them,
// so lookups agree with a Go map and no probe chain grows long.
func TestIndexKeysSharingLowBits(t *testing.T) {
	for _, shift := range []uint{32, 48} {
		rng := rand.New(rand.NewSource(int64(shift)))
		var keys []uint64
		for i := 0; i < 20000; i++ {
			keys = append(keys, uint64(rng.Intn(8000))<<shift|0x5a5a)
		}
		tab := &wordTable{x: NewIndex(0)}
		checkAgainstMap(t, tab, keys)
		if c := tab.x.longestChain(); c > 64 {
			t.Errorf("shift %d: longest probe chain %d slots for %d ids in %d slots", shift, c, tab.x.Len(), len(tab.x.slots))
		}
	}
}

// TestIndexCollidingSeed gives every key the same tag and home slot, so
// every lookup walks one chain and confirms each id on it against the
// record: the answers must still be the Go map's.
func TestIndexCollidingSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var keys []uint64
	for i := 0; i < 3000; i++ {
		keys = append(keys, uint64(rng.Intn(1000)))
	}
	tab := &wordTable{x: NewCollidingIndex(0)}
	checkAgainstMap(t, tab, keys)
	if c := tab.x.longestChain(); c != tab.x.Len() {
		t.Fatalf("longest chain %d, want all %d ids on one chain", c, tab.x.Len())
	}
}

// randomGates drives a builder with n requests over a small operand window,
// so about half repeat an earlier gate; operands are ordered and the kinds
// binary, so each request names exactly the gate CSE emits or finds.
func randomGates(b *Builder, rng *rand.Rand, n int, check func(req Gate, id NodeID)) {
	kinds := []logic.Kind{logic.AND, logic.OR, logic.XOR, logic.NAND, logic.NOR,
		logic.XNOR, logic.ANDYN, logic.ANDNY, logic.ORYN, logic.ORNY}
	ins := b.Inputs("x", 64)
	nodes := append([]NodeID(nil), ins...)
	for i := 0; i < n; i++ {
		lo := max(0, len(nodes)-40)
		x, y := nodes[lo+rng.Intn(len(nodes)-lo)], nodes[lo+rng.Intn(len(nodes)-lo)]
		if x == y {
			continue
		}
		if y < x {
			x, y = y, x
		}
		req := Gate{Kind: kinds[rng.Intn(len(kinds))], A: x, B: y}
		id := b.Gate(req.Kind, x, y)
		check(req, id)
		if rng.Intn(2) == 0 {
			nodes = append(nodes, id)
		}
	}
}

// checkBuilderAgainstMap runs randomGates on b with a Go map from gate to
// node id as the CSE oracle.
func checkBuilderAgainstMap(t *testing.T, b *Builder, seed int64, n int) {
	t.Helper()
	oracle := map[Gate]NodeID{}
	randomGates(b, rand.New(rand.NewSource(seed)), n, func(req Gate, id NodeID) {
		want, seen := oracle[req]
		if !seen {
			want = NodeID(b.numInputs + b.NumGates())
			oracle[req] = want
		}
		if id != want {
			t.Fatalf("%+v: builder returned %d, map oracle %d (seen %v)", req, id, want, seen)
		}
	})
	if b.NumGates() != len(oracle) || b.cse.Len() != len(oracle) {
		t.Fatalf("%d gates, %d indexed, map holds %d", b.NumGates(), b.cse.Len(), len(oracle))
	}
	if b.Rewrites() != 0 {
		t.Fatalf("%d rewrites on ordered binary gates with CSE alone", b.Rewrites())
	}
}

// TestBuilderIndexGrowsFromEmpty builds without Grow, so the CSE index
// starts empty and doubles at least 16 times; every lookup must agree with
// a Go map.
func TestBuilderIndexGrowsFromEmpty(t *testing.T) {
	b := NewBuilder("grow", BuilderOptions{CSE: true})
	checkBuilderAgainstMap(t, b, 1, 600_000)
	if got, want := len(b.cse.slots), minIndexSlots<<16; got < want {
		t.Fatalf("index grew to %d slots, want ≥ %d (16 doublings)", got, want)
	}
}

// TestBuilderCollidingSeed runs the builder's CSE with every gate on one
// probe chain: each hit is found by confirming candidates against the
// gates themselves, and the result is the Go map's.
func TestBuilderCollidingSeed(t *testing.T) {
	b := NewBuilder("collide", BuilderOptions{CSE: true})
	b.cse = NewCollidingIndex(0)
	checkBuilderAgainstMap(t, b, 2, 4000)
}

// TestBuilderSeedIndependent builds the same gate sequence under three
// seeds — two random, one colliding — with every optimization on, LUTs
// included: the netlists are identical.
func TestBuilderSeedIndependent(t *testing.T) {
	build := func(x Index) *Netlist {
		b := NewBuilder("seeds", AllOptimizations())
		b.cse = x
		rng := rand.New(rand.NewSource(9))
		nodes := b.Inputs("x", 16)
		for i := 0; i < 3000; i++ {
			pick := func() NodeID { return nodes[max(0, len(nodes)-24)+rng.Intn(min(24, len(nodes)))] }
			var id NodeID
			if rng.Intn(4) == 0 {
				id = b.LUT(logic.TT(rng.Intn(256)), pick(), pick(), pick())
			} else {
				id = b.Gate(logic.Kind(rng.Intn(logic.NumKinds)), pick(), pick())
			}
			if !id.IsConst() {
				nodes = append(nodes, id)
			}
		}
		b.OutputBus("y", nodes[len(nodes)-8:])
		return b.MustBuild()
	}
	want := build(NewIndex(0))
	for i, x := range []Index{NewIndex(0), NewCollidingIndex(0)} {
		got := build(x)
		if len(got.Gates) != len(want.Gates) {
			t.Fatalf("seed %d: %d gates, want %d", i, len(got.Gates), len(want.Gates))
		}
		for g := range got.Gates {
			if got.Gates[g] != want.Gates[g] {
				t.Fatalf("seed %d: gate %d is %+v, want %+v", i, g, got.Gates[g], want.Gates[g])
			}
		}
	}
}
