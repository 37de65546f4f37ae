// Package shard partitions a compiled plan.Plan into per-worker shards so
// the cluster coordinator is a data-plane router, not a gate dispatcher.
// The cut follows the plan's existing static level partition: shard w owns
// batch columns j ≡ w (mod n) of every level, so the compiler's
// heaviest-first balance carries over and the split itself is a single
// linear walk. Each shard is a self-contained replay program — its
// instructions renumbered into a private value table of remote-input slots
// (values produced elsewhere: run inputs and cross-shard boundary values)
// followed by local arena slots — plus a per-level export manifest naming
// the values other shards or the run outputs will consume. The shard is
// shipped to its worker once, keyed by content hash, and cached across
// runs; per run only the boundary traffic moves: O(cut edges) ciphertexts,
// not O(gates).
//
// This is the distributed-inference shape the paper reaches with Ray
// actors and CHET reaches with its compiler/runtime split: the expensive
// placement decision happens once at compile time, the runtime is a thin
// level-synchronized router. Correctness of arena-slot reuse carries over
// from the plan: the router finishes every level before the next exactly
// as plan replay does, exported values are gob-copied off the producer
// before any later level can rewrite the slot, and distinct generations of
// a reused global slot get distinct export ids (and therefore distinct
// remote slots in every consumer).
package shard

import (
	"errors"
	"fmt"

	"pytfhe/internal/logic"
	"pytfhe/internal/plan"
)

// WorkerBatch is how many bootstrapped instructions of a shard level share
// one kernel dispatch on a cluster worker — the value pytfhed defaults to.
const WorkerBatch = 16

// Shard is the self-contained slice of a compiled plan owned by one
// worker. It is the unit of shipment and caching: Hash keys the worker's
// cross-run shard cache, so a program evaluated twice ships its shards
// exactly once.
//
// Local refs partition into remote-input slots [0, NumRemote) — filled by
// the router each run with input or boundary ciphertexts — and local
// arena slots [NumRemote, NumRemote+NumLocal) written by the shard's own
// instructions.
type Shard struct {
	PlanHash string // fingerprint of the source plan
	Index    int    // shard index within the decomposition
	Count    int    // total shards in the decomposition
	Hash     string // content hash of this shard (ship-once cache key)

	NumRemote int // remote-input slots the router fills per run
	NumLocal  int // slots the shard's own instructions write

	// Levels[l] holds the shard's instructions for global plan level l;
	// an empty entry means the shard idles through that level and the
	// router skips it entirely.
	Levels [][]plan.Instr
	// Exports[l] lists the local refs whose values return to the router
	// after level l executes, in manifest order (the router pairs them
	// with Sharding.ExportIDs[shard][l] by position).
	Exports [][]int32
}

// Validate checks that sh is safe to run: non-negative slot counts no
// larger than its instructions can use, one export manifest per level,
// every instruction writing a local slot and reading in-table refs at a
// LUT arity the engine has, every export naming a local slot, and every
// level independent — no slot written twice in one level, none read in
// the level that writes it. A shard reaches a worker off a socket, its
// counts size the runtime's value table and its refs index it, and the
// worker's scheduler evaluates a level's instructions in any order and
// batches them with other runs' (a read of a slot the same level writes
// would see a pending, uncomputed ciphertext); Validate keeps a malformed
// shard from panicking the worker or racing on its table. It checks shape
// only — whether the shard computes its plan is Verify's job.
func (sh *Shard) Validate() error {
	if sh.NumRemote < 0 || sh.NumLocal < 0 {
		return fmt.Errorf("%w: shard %d has %d remote and %d local slots", ErrShape, sh.Index, sh.NumRemote, sh.NumLocal)
	}
	if len(sh.Exports) != len(sh.Levels) {
		return fmt.Errorf("%w: shard %d has %d levels but %d export manifests", ErrShape, sh.Index, len(sh.Levels), len(sh.Exports))
	}
	// Every local slot is some instruction's output and every remote slot
	// some instruction's operand.
	instrs := 0
	for _, lv := range sh.Levels {
		instrs += len(lv)
	}
	if sh.NumLocal > instrs || sh.NumRemote > logic.MaxLUTArity*instrs {
		return fmt.Errorf("%w: shard %d has %d remote and %d local slots for %d instrs", ErrShape, sh.Index, sh.NumRemote, sh.NumLocal, instrs)
	}
	nRefs := int32(sh.NumRemote + sh.NumLocal)
	// wrote[ref] is 1 + the last level that wrote ref, so one pass over a
	// level's outputs and one over its operands check its independence.
	wrote := make([]int32, nRefs)
	for li, lv := range sh.Levels {
		stamp := int32(li + 1)
		for k, ins := range lv {
			if ins.Out < int32(sh.NumRemote) || ins.Out >= nRefs {
				return fmt.Errorf("%w: shard %d level %d instr %d writes ref %d (locals are [%d,%d))",
					ErrShape, sh.Index, li, k, ins.Out, sh.NumRemote, nRefs)
			}
			if ins.A < 0 || ins.A >= nRefs || ins.B < 0 || ins.B >= nRefs {
				return fmt.Errorf("%w: shard %d level %d instr %d reads refs %d,%d (valid range [0,%d))",
					ErrShape, sh.Index, li, k, ins.A, ins.B, nRefs)
			}
			if ins.Arity != 0 && (ins.Arity < 2 || int(ins.Arity) > logic.MaxLUTArity) {
				return fmt.Errorf("%w: shard %d level %d instr %d has LUT arity %d", ErrShape, sh.Index, li, k, ins.Arity)
			}
			if ins.Arity >= 3 && (ins.C < 0 || ins.C >= nRefs) {
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
			if ref < int32(sh.NumRemote) || ref >= nRefs {
				return fmt.Errorf("%w: shard %d level %d export %d names ref %d (locals are [%d,%d))",
					ErrShape, sh.Index, li, k, ref, sh.NumRemote, nRefs)
			}
		}
	}
	return nil
}

// Fill instructs the router to install one value into a shard's
// remote-input slot before a level runs. Exactly one of Input (a run
// input index) and Export (a boundary export id) is non-negative. Fills
// are scheduled at the consumer's first-use level, which by construction
// is a level where the shard has instructions.
type Fill struct {
	Slot   int32 // remote slot in the consumer shard
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

	// Fills[w][l] lists the remote-slot installs shard w needs before
	// executing level l.
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

// writerRec tracks, per global arena slot, the shard and local ref that
// hold its current generation, the level that wrote it, and the boundary
// export id assigned to that generation (-1 until a foreign reader or a
// run output needs it).
type writerRec struct {
	shard  int
	local  int32 // provisional local ref (encoded -1-idx until finalize)
	level  int
	export int32
}

// Split decomposes a compiled plan into n shards along its static level
// partition. n is clamped to the plan's worker count (extra workers would
// own empty batch columns). The walk maintains, per global arena slot,
// which shard wrote its current generation; a read from another shard (or
// a plan output) lazily creates a boundary export at the producer and a
// remote-input slot at the consumer, so only values that actually cross
// the cut are ever routed.
func Split(p *plan.Plan, n int) (*Sharding, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil plan", ErrSplit)
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: %d shards", ErrSplit, n)
	}
	if n > p.Workers {
		n = p.Workers
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
	remoteIn := make([]map[int32]int32, n)  // run input index → remote slot
	remoteExp := make([]map[int32]int32, n) // export id → remote slot
	localOf := make([]map[int32]int32, n)   // global arena slot → local slot index
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
		remoteIn[w] = make(map[int32]int32)
		remoteExp[w] = make(map[int32]int32)
		localOf[w] = make(map[int32]int32)
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
		prod := s.Shards[wr.shard]
		prod.Exports[wr.level] = append(prod.Exports[wr.level], wr.local)
		s.ExportIDs[wr.shard][wr.level] = append(s.ExportIDs[wr.shard][wr.level], wr.export)
		return wr.export
	}
	// mapRead renumbers an operand ref into shard w's table at level li,
	// creating remote slots and fills on first foreign use.
	mapRead := func(w, li int, r plan.Ref) (plan.Ref, error) {
		if r < np { // run input
			if slot, ok := remoteIn[w][r]; ok {
				return slot, nil
			}
			slot := int32(s.Shards[w].NumRemote)
			s.Shards[w].NumRemote++
			remoteIn[w][r] = slot
			s.Fills[w][li] = append(s.Fills[w][li], Fill{Slot: slot, Input: r, Export: -1})
			return slot, nil
		}
		g := r - np
		wr := &writers[g]
		if wr.shard < 0 {
			return 0, fmt.Errorf("%w: level %d reads arena slot %d before any level writes it", ErrSplit, li, g)
		}
		if wr.shard == w {
			lo, ok := localOf[w][g]
			if !ok {
				return 0, fmt.Errorf("%w: shard-local read of arena slot %d has no local slot", ErrSplit, g)
			}
			return -1 - lo, nil
		}
		e := ensureExport(wr)
		if slot, ok := remoteExp[w][e]; ok {
			return slot, nil
		}
		slot := int32(s.Shards[w].NumRemote)
		s.Shards[w].NumRemote++
		remoteExp[w][e] = slot
		s.Fills[w][li] = append(s.Fills[w][li], Fill{Slot: slot, Input: -1, Export: e})
		return slot, nil
	}

	// Two passes per level: operands resolve against the writer records of
	// strictly earlier levels (instructions within a wavefront are
	// independent), then the level's writes update the records.
	type pending struct {
		w       int
		ins     plan.Instr
		a, b, c plan.Ref
	}
	var pends []pending
	for li, lv := range levels {
		pends = pends[:0]
		for j, instrs := range lv.Batches {
			w := j % n
			for _, ins := range instrs {
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
				pends = append(pends, pending{w: w, ins: ins, a: a, b: b, c: c})
			}
		}
		for _, pd := range pends {
			sh := s.Shards[pd.w]
			g := pd.ins.Out - np
			lo, ok := localOf[pd.w][g]
			if !ok {
				lo = int32(sh.NumLocal)
				sh.NumLocal++
				localOf[pd.w][g] = lo
			}
			out := -1 - lo // provisional local encoding
			writers[g] = writerRec{shard: pd.w, local: out, level: li, export: -1}
			sh.Levels[li] = append(sh.Levels[li], plan.Instr{
				Kind: pd.ins.Kind, Out: out, A: pd.a, B: pd.b,
				C: pd.c, TT: pd.ins.TT, Arity: pd.ins.Arity,
			})
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

	// Finalize: local refs were provisionally encoded -1-idx because the
	// remote-slot count was still growing; rebase them past NumRemote.
	for _, sh := range s.Shards {
		for li := range sh.Levels {
			for k := range sh.Levels[li] {
				ins := &sh.Levels[li][k]
				ins.Out = finalRef(sh, ins.Out)
				ins.A = finalRef(sh, ins.A)
				ins.B = finalRef(sh, ins.B)
				if ins.Arity >= 3 {
					ins.C = finalRef(sh, ins.C)
				}
			}
			for k, ref := range sh.Exports[li] {
				sh.Exports[li][k] = finalRef(sh, ref)
			}
		}
		sh.Hash = sh.contentHash()
	}
	return s, nil
}

// finalRef rebases a provisional ref: remote refs ([0, NumRemote)) pass
// through, provisional locals (-1-idx) land at NumRemote+idx.
func finalRef(sh *Shard, r plan.Ref) plan.Ref {
	if r < 0 {
		return int32(sh.NumRemote) + (-1 - r)
	}
	return r
}
