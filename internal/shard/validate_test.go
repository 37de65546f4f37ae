package shard

import (
	"bytes"
	"encoding/gob"
	"errors"
	"slices"
	"testing"

	"pytfhe/internal/logic"
	"pytfhe/internal/plan"
	"pytfhe/internal/vipbench"
)

// TestValidateRejectsDependentLevel: a worker's scheduler evaluates a
// level's instructions in any order and batches them with other runs', so
// a shard that writes one slot twice in a level, or reads a slot the same
// level writes, is refused before it runs.
func TestValidateRejectsDependentLevel(t *testing.T) {
	p, err := plan.Compile(nandChains(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Split(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := s.Shards[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("split shard: %v", err)
	}
	// The three chains advance together: every level holds three NANDs.
	const l = 1
	if len(good.Levels[l]) < 2 {
		t.Fatalf("level %d has %d instrs, want at least 2", l, len(good.Levels[l]))
	}
	cases := []struct {
		name   string
		mutate func(lv []plan.Instr)
	}{
		{"slot written twice", func(lv []plan.Instr) { lv[1].Out = lv[0].Out }},
		{"first operand written by the level", func(lv []plan.Instr) { lv[1].A = lv[0].Out }},
		{"second operand written by a later instr", func(lv []plan.Instr) { lv[0].B = lv[1].Out }},
		{"LUT operand written by the level", func(lv []plan.Instr) {
			lv[1].Arity, lv[1].TT, lv[1].C = 3, 0x96, lv[0].Out
		}},
		{"instr reads its own output", func(lv []plan.Instr) { lv[0].A = lv[0].Out }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *good
			bad.Levels = slices.Clone(good.Levels)
			bad.Levels[l] = slices.Clone(good.Levels[l])
			tc.mutate(bad.Levels[l])
			if err := bad.Validate(); !errors.Is(err, ErrShape) {
				t.Fatalf("Validate = %v, want ErrShape", err)
			}
		})
	}
}

// FuzzShardValidate decodes a shard the way a worker does — gob off the
// socket — and, for every shard Validate accepts, re-checks with its own
// loop what the worker then relies on: every ref inside the value table,
// outputs and exports local, LUT arities the engine has, and each level
// independent. Seeds are the two-way splits of two VIP-Bench kernels.
func FuzzShardValidate(f *testing.F) {
	for _, b := range []vipbench.Benchmark{vipbench.HammingDistance(), vipbench.DotProduct()} {
		nl, err := b.Build()
		if err != nil {
			f.Fatal(err)
		}
		p, err := plan.Compile(nl)
		if err != nil {
			f.Fatal(err)
		}
		s, err := Split(p, 2)
		if err != nil {
			f.Fatal(err)
		}
		for _, sh := range s.Shards {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(sh); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sh Shard
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&sh) != nil || sh.Validate() != nil {
			return
		}
		refs := sh.NumRemote + sh.NumLocal
		inTable := func(r int32) bool { return r >= 0 && int(r) < refs }
		local := func(r int32) bool { return inTable(r) && int(r) >= sh.NumRemote }
		if len(sh.Exports) != len(sh.Levels) {
			t.Fatalf("accepted %d levels with %d export manifests", len(sh.Levels), len(sh.Exports))
		}
		for li, lv := range sh.Levels {
			writes := make(map[int32]bool, len(lv))
			for k, ins := range lv {
				if !local(ins.Out) || writes[ins.Out] {
					t.Fatalf("level %d instr %d: accepted write of ref %d", li, k, ins.Out)
				}
				writes[ins.Out] = true
				if ins.Arity != 0 && (ins.Arity < 2 || int(ins.Arity) > logic.MaxLUTArity) {
					t.Fatalf("level %d instr %d: accepted LUT arity %d", li, k, ins.Arity)
				}
			}
			for k, ins := range lv {
				reads := []int32{ins.A, ins.B}
				if ins.Arity >= 3 {
					reads = append(reads, ins.C)
				}
				for _, r := range reads {
					if !inTable(r) || writes[r] {
						t.Fatalf("level %d instr %d: accepted read of ref %d", li, k, r)
					}
				}
			}
			for k, r := range sh.Exports[li] {
				if !local(r) {
					t.Fatalf("level %d export %d: accepted ref %d", li, k, r)
				}
			}
		}
	})
}
