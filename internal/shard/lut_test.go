package shard

import (
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/plan"
)

// lutNetlist builds the mixed LUT/classic shape the synthesis pass emits,
// wired so LUT operands cross shard boundaries when split.
func lutNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("lut-shard", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	w := b.Input("w")
	par := b.LUT(0x96, x, y, z)
	maj := b.LUT(0xE8, x, y, w)
	b.Output("mix", b.LUT(0x7E, par, maj, w))
	b.Output("and", b.Gate(logic.AND, par, maj))
	b.Output("xor", b.Gate(logic.XOR, par, z))
	return b.MustBuild()
}

// TestSplitLUTMatchesNetlist routes LUT plans through every shard count and
// checks the decomposition against the netlist on all input assignments,
// with Verify's independent simulation agreeing.
func TestSplitLUTMatchesNetlist(t *testing.T) {
	nl := lutNetlist()
	for _, workers := range []int{1, 2, 4} {
		p, err := plan.Compile(nl, workers)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		for _, n := range []int{1, 2, 3} {
			s, err := Split(p, n)
			if err != nil {
				t.Fatalf("w=%d n=%d: %v", workers, n, err)
			}
			if _, err := Verify(p, s); err != nil {
				t.Fatalf("w=%d n=%d verify: %v", workers, n, err)
			}
			for m := 0; m < 1<<nl.NumInputs; m++ {
				in := make([]bool, nl.NumInputs)
				for i := range in {
					in[i] = m>>i&1 == 1
				}
				want, err := nl.Evaluate(in)
				if err != nil {
					t.Fatal(err)
				}
				got := evalSharded(s, in)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("w=%d n=%d input %b output %d: sharded %v, reference %v",
							workers, n, m, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardHashCoversLUTTable asserts the ship-once cache key covers the
// truth table: shards identical except one LUT's table must not collide.
func TestShardHashCoversLUTTable(t *testing.T) {
	build := func(tt logic.TT) *Shard {
		b := circuit.NewBuilder("fp", circuit.NoOptimizations())
		x := b.Input("x")
		y := b.Input("y")
		z := b.Input("z")
		b.Output("o", b.LUT(tt, x, y, z))
		p, err := plan.Compile(b.MustBuild(), 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Split(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s.Shards[0]
	}
	a, b := build(0x96), build(0xE8)
	// Force identical plan hashes so only the instruction bytes distinguish
	// the shards — the per-instruction layout itself must cover the table.
	b.PlanHash = a.PlanHash
	if a.contentHash() == b.contentHash() {
		t.Fatal("shards with different LUT tables share a content hash")
	}
}

// TestSharedShardEncryptedLUT runs a LUT plan split two ways on the slice
// scheduler, emulating the router, and checks decryption.
func TestSharedShardEncryptedLUT(t *testing.T) {
	runOnShared(t, lutNetlist(), []uint64{0, 6, 11, 15})
}
