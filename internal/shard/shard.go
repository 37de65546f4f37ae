// Package shard partitions a compiled plan.Plan into per-worker shards so
// the cluster coordinator is a data-plane router, not a gate dispatcher.
// Shard j owns part j of plan.Cut of every level — contiguous runs of
// instructions with equal bootstrap counts, the same cut the slice
// scheduler spreads a level over its workers with — so the shards are
// balanced level by level, neighbouring instructions (which tend to share
// operands) stay on one shard, and the split itself is a single linear
// walk. Each shard is a self-contained replay program over a private value
// table with one slot per plan ref it reads or writes, numbered densely in
// first-touch order, plus a per-level export manifest naming the values
// other shards or the run outputs will consume. A value the shard did not
// compute (a run input or a cross-shard boundary value) reaches its slot
// as a fill, which the worker copies into a ciphertext its runtime owns.
// The shard is shipped to its worker once, keyed by content hash, and
// cached across runs; per run only the boundary traffic moves: O(cut
// edges) ciphertexts, not O(gates).
//
// This is the distributed-inference shape the paper reaches with Ray
// actors and CHET reaches with its compiler/runtime split: the expensive
// placement decision happens once at compile time, the runtime is a thin
// level-synchronized router. A slot keeps whatever it last held, so Split
// refills a slot exactly when it does not hold the generation of its ref
// the plan reads there; the router finishes every level before the next
// exactly as plan replay does, exported values are gob-copied off the
// producer before any later level can rewrite the slot, and distinct
// generations of a reused plan ref get distinct export ids.
package shard

import (
	"errors"
	"fmt"

	"pytfhe/internal/logic"
	"pytfhe/internal/plan"
)

// Shard is the self-contained slice of a compiled plan owned by one
// worker. It is the unit of shipment and caching: Hash keys the worker's
// cross-run shard cache, so a program evaluated twice ships its shards
// exactly once.
//
// Its refs index a table of Slots slots, one per plan ref the shard reads
// or writes; the router fills some of them each run with input or
// boundary ciphertexts, the shard's own instructions write the others.
type Shard struct {
	PlanHash string // fingerprint of the source plan
	Index    int    // shard index within the decomposition
	Count    int    // total shards in the decomposition
	Hash     string // content hash of this shard (ship-once cache key)

	Slots int // value-table slots: one per plan ref the shard touches

	// Levels[l] holds the shard's instructions for global plan level l;
	// an empty entry means the shard idles through that level and the
	// router skips it entirely.
	Levels [][]plan.Instr
	// Exports[l] lists the slots whose values return to the router
	// after level l executes, in manifest order (the router pairs them
	// with Sharding.ExportIDs[shard][l] by position).
	Exports [][]int32
}

// Validate checks that sh is safe to run: a slot count no larger than its
// instructions can touch, one export manifest per level, every
// instruction writing and reading in-table slots at a LUT arity the engine
// has, every export naming an in-table slot, and every level independent —
// no slot written twice in one level, none read in the level that writes
// it. A shard reaches a worker off a socket, its count sizes the runtime's
// value table and its refs index it, and the worker's scheduler evaluates
// a level's instructions in any order and batches them with other runs' (a
// read of a slot the same level writes would see a pending, uncomputed
// ciphertext); Validate keeps a malformed shard from panicking the worker
// or racing on its table. It checks shape only — whether the shard
// computes its plan is Verify's job.
func (sh *Shard) Validate() error {
	if len(sh.Exports) != len(sh.Levels) {
		return fmt.Errorf("%w: shard %d has %d levels but %d export manifests", ErrShape, sh.Index, len(sh.Levels), len(sh.Exports))
	}
	// Every slot is some instruction's output or operand.
	instrs := 0
	for _, lv := range sh.Levels {
		instrs += len(lv)
	}
	if sh.Slots < 0 || sh.Slots > (1+logic.MaxLUTArity)*instrs {
		return fmt.Errorf("%w: shard %d has %d slots for %d instrs", ErrShape, sh.Index, sh.Slots, instrs)
	}
	nRefs := int32(sh.Slots)
	inTable := func(r int32) bool { return r >= 0 && r < nRefs }
	// wrote[ref] is 1 + the last level that wrote ref, so one pass over a
	// level's outputs and one over its operands check its independence.
	wrote := make([]int32, nRefs)
	for li, lv := range sh.Levels {
		stamp := int32(li + 1)
		for k, ins := range lv {
			if !inTable(ins.Out) || !inTable(ins.A) || !inTable(ins.B) {
				return fmt.Errorf("%w: shard %d level %d instr %d touches refs %d<-%d,%d (valid range [0,%d))",
					ErrShape, sh.Index, li, k, ins.Out, ins.A, ins.B, nRefs)
			}
			if ins.Arity != 0 && (ins.Arity < 2 || int(ins.Arity) > logic.MaxLUTArity) {
				return fmt.Errorf("%w: shard %d level %d instr %d has LUT arity %d", ErrShape, sh.Index, li, k, ins.Arity)
			}
			if ins.Arity >= 3 && !inTable(ins.C) {
				return fmt.Errorf("%w: shard %d level %d instr %d reads LUT ref %d (valid range [0,%d))",
					ErrShape, sh.Index, li, k, ins.C, nRefs)
			}
			if wrote[ins.Out] == stamp {
				return fmt.Errorf("%w: shard %d level %d writes ref %d twice", ErrShape, sh.Index, li, ins.Out)
			}
			wrote[ins.Out] = stamp
		}
		for k, ins := range lv {
			if wrote[ins.A] == stamp || wrote[ins.B] == stamp || (ins.Arity >= 3 && wrote[ins.C] == stamp) {
				return fmt.Errorf("%w: shard %d level %d instr %d reads a ref the same level writes", ErrShape, sh.Index, li, k)
			}
		}
		for k, ref := range sh.Exports[li] {
			if !inTable(ref) {
				return fmt.Errorf("%w: shard %d level %d export %d names ref %d (valid range [0,%d))",
					ErrShape, sh.Index, li, k, ref, nRefs)
			}
		}
	}
	return nil
}

// Fill instructs the router to install one value into a shard's slot
// before a level runs. Exactly one of Input (a run input index) and Export
// (a boundary export id) is non-negative. A fill is scheduled at a level
// whose instructions read the value, which by construction is a level
// where the shard has instructions.
type Fill struct {
	Slot   int32 // slot in the consumer shard
	Input  int32 // run input index, or -1
	Export int32 // boundary export id, or -1
}

// OutputSrc locates one plan output for the router's collector: a
// constant sentinel, a run input (COPY collapse can fold an output onto
// an input), or a boundary export.
type OutputSrc struct {
	Input  int32    // run input index, or -1
	Export int32    // boundary export id, or -1
	Const  plan.Ref // ConstFalse/ConstTrue; consulted only when Input and Export are -1
}

// Sharding is the complete decomposition of one plan: the shards to ship
// plus the routing manifest the coordinator drives each run with. The
// manifest never leaves the coordinator — workers see only their Shard.
type Sharding struct {
	Plan   *plan.Plan
	Shards []*Shard

	// Fills[w][l] lists the slot installs shard w needs before executing
	// level l.
	Fills [][][]Fill
	// ExportIDs[w][l] holds the boundary export ids aligned by position
	// with Shards[w].Exports[l].
	ExportIDs [][][]int32
	// Outputs locates each plan output, aligned with Plan.Outputs().
	Outputs []OutputSrc
	// CutEdges counts the distinct boundary values streamed back to the
	// router per run — the wire traffic the decomposition pays instead of
	// per-gate operand shipping.
	CutEdges int
}

// ErrSplit marks a decomposition request Split cannot honor.
var ErrSplit = errors.New("shard: invalid split")

// writerRec tracks, per plan arena slot, the shard and shard slot that
// hold its current generation, the level that wrote it (which names the
// generation: a level writes a ref at most once), and the boundary export
// id assigned to that generation (-1 until a foreign reader or a run
// output needs it).
type writerRec struct {
	shard  int
	slot   int32
	level  int32
	export int32
}

// held is one plan ref's entry in a shard's table: its slot (-1 until
// first touched) and the generation the slot holds — the writer's level,
// -1 for a run input, -2 for nothing yet.
type held struct{ slot, gen int32 }

// Split decomposes a compiled plan into n shards: shard j takes part j of
// plan.Cut(level, n) of every level, and idles through a level with fewer
// than j+1 instructions. The walk maintains, per plan arena slot, which
// shard wrote its current generation, and per shard which generation each
// of its slots holds; a read of a generation the reading shard does not
// hold fills its slot — from the run inputs, or from a boundary export
// created lazily at the producer — so only values that actually cross the
// cut are ever routed.
func Split(p *plan.Plan, n int) (*Sharding, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil plan", ErrSplit)
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: %d shards", ErrSplit, n)
	}
	np := plan.Ref(p.NumInputs)
	levels := p.Levels()
	planHash := p.Fingerprint()

	writers := make([]writerRec, p.ArenaSlots())
	for i := range writers {
		writers[i].shard = -1
	}

	s := &Sharding{
		Plan:      p,
		Shards:    make([]*Shard, n),
		Fills:     make([][][]Fill, n),
		ExportIDs: make([][][]int32, n),
	}
	tables := make([][]held, n) // plan ref → the shard's slot for it
	for w := 0; w < n; w++ {
		s.Shards[w] = &Shard{
			PlanHash: planHash,
			Index:    w,
			Count:    n,
			Levels:   make([][]plan.Instr, len(levels)),
			Exports:  make([][]int32, len(levels)),
		}
		s.Fills[w] = make([][]Fill, len(levels))
		s.ExportIDs[w] = make([][]int32, len(levels))
		tables[w] = make([]held, int(np)+p.ArenaSlots())
		for r := range tables[w] {
			tables[w][r] = held{slot: -1, gen: -2}
		}
	}
	// slotOf returns shard w's entry for plan ref r, numbering its slot on
	// first touch.
	slotOf := func(w int, r plan.Ref) *held {
		h := &tables[w][r]
		if h.slot < 0 {
			h.slot = int32(s.Shards[w].Slots)
			s.Shards[w].Slots++
		}
		return h
	}

	nextExport := int32(0)
	// ensureExport assigns a boundary export id to the generation wr
	// currently holds, appending it to the producer's manifest for the
	// level that wrote it. Appending retroactively is safe: nothing is
	// streamed during Split, and the worker sends Exports[l] at the end
	// of level l, before any later level can rewrite the slot.
	ensureExport := func(wr *writerRec) int32 {
		if wr.export >= 0 {
			return wr.export
		}
		wr.export = nextExport
		nextExport++
		s.Shards[wr.shard].Exports[wr.level] = append(s.Shards[wr.shard].Exports[wr.level], wr.slot)
		s.ExportIDs[wr.shard][wr.level] = append(s.ExportIDs[wr.shard][wr.level], wr.export)
		return wr.export
	}
	// mapRead returns shard w's slot for operand r at level li, filling it
	// when it does not hold the generation the plan reads there.
	mapRead := func(w, li int, r plan.Ref) (plan.Ref, error) {
		f := Fill{Input: r, Export: -1}
		gen := int32(-1) // a run input has one generation
		var wr *writerRec
		if r >= np {
			if wr = &writers[r-np]; wr.shard < 0 {
				return 0, fmt.Errorf("%w: level %d reads arena slot %d before any level writes it", ErrSplit, li, r-np)
			}
			f.Input, gen = -1, wr.level
		}
		h := slotOf(w, r)
		if h.gen != gen {
			if wr != nil {
				f.Export = ensureExport(wr)
			}
			f.Slot, h.gen = h.slot, gen
			s.Fills[w][li] = append(s.Fills[w][li], f)
		}
		return h.slot, nil
	}

	// Instructions of a level are independent (no level reads a ref it
	// writes), so each resolves its operands and records its write in one
	// step.
	for li, lv := range levels {
		for w, part := range plan.Cut(lv, n) {
			sh := s.Shards[w]
			for _, ins := range part {
				a, err := mapRead(w, li, ins.A)
				if err != nil {
					return nil, err
				}
				b, err := mapRead(w, li, ins.B)
				if err != nil {
					return nil, err
				}
				var c plan.Ref
				if ins.Arity >= 3 {
					if c, err = mapRead(w, li, ins.C); err != nil {
						return nil, err
					}
				}
				h := slotOf(w, ins.Out)
				h.gen = int32(li)
				writers[ins.Out-np] = writerRec{shard: w, slot: h.slot, level: int32(li), export: -1}
				sh.Levels[li] = append(sh.Levels[li], plan.Instr{
					Out: h.slot, A: a, B: b, C: c, TT: ins.TT, Arity: ins.Arity,
				})
			}
		}
	}

	for _, r := range p.Outputs() {
		switch {
		case r == plan.ConstFalse || r == plan.ConstTrue:
			s.Outputs = append(s.Outputs, OutputSrc{Input: -1, Export: -1, Const: r})
		case r < np:
			s.Outputs = append(s.Outputs, OutputSrc{Input: r, Export: -1})
		default:
			wr := &writers[r-np]
			if wr.shard < 0 {
				return nil, fmt.Errorf("%w: output reads arena slot %d that no level writes", ErrSplit, r-np)
			}
			s.Outputs = append(s.Outputs, OutputSrc{Input: -1, Export: ensureExport(wr)})
		}
	}
	s.CutEdges = int(nextExport)
	for _, sh := range s.Shards {
		sh.Hash = sh.contentHash()
	}
	return s, nil
}
