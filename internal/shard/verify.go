package shard

import (
	"errors"
	"fmt"

	"pytfhe/internal/plan"
)

// evalInstrWord evaluates one instruction bit-parallel: LUT instructions
// through their truth table (the third operand read from tbl[cRef] only at
// arity 3, so classic instructions never index with their zero C field),
// classic gates through the kind.
func evalInstrWord(ins plan.Instr, a, b uint64, tbl []uint64, cRef plan.Ref) uint64 {
	if ins.IsLUT() {
		var c uint64
		if ins.Arity >= 3 {
			c = tbl[cRef]
		}
		return plan.EvalWordTT(ins.TT, int(ins.Arity), a, b, c)
	}
	return plan.EvalWord(ins.Kind, a, b)
}

// Verification failure classes for shard decompositions, mirroring
// plan.Verify's sentinel style so callers classify with errors.Is.
var (
	// ErrShape: the decomposition is structurally malformed — shard/level
	// counts inconsistent with the plan, refs out of range, or manifest
	// slices misaligned.
	ErrShape = errors.New("shard: verify: malformed sharding")
	// ErrRouting: the routing manifest is unsound — a remote slot read
	// before any fill installs it, a fill consuming an export no earlier
	// level produced, a local slot read before written, or export ids
	// that do not cover [0, CutEdges) exactly once.
	ErrRouting = errors.New("shard: verify: routing manifest inconsistent")
	// ErrSemantics: a sharded instruction or output differs from the
	// source plan's under some simulated input assignment.
	ErrSemantics = errors.New("shard: verify: sharded outputs differ from plan")
)

// VerifyReport summarizes a successful decomposition verification.
type VerifyReport struct {
	Shards       int
	Instructions int
	CutEdges     int // boundary ciphertexts routed per run
	Fills        int // remote-slot installs per run (inputs + boundary)
	Vectors      int
	Exhaustive   bool
}

func (r *VerifyReport) String() string {
	mode := "sampled"
	if r.Exhaustive {
		mode = "exhaustive"
	}
	return fmt.Sprintf("sharding verified: %d shards / %d instrs, %d cut edges, %d fills, %d vectors (%s)",
		r.Shards, r.Instructions, r.CutEdges, r.Fills, r.Vectors, mode)
}

// Verify extends plan verification to a shard decomposition: it re-derives
// that routing the plan through s — filling remote slots level by level,
// executing each shard's renumbered instructions, gathering exports — is
// equivalent to replaying the plan directly. Structure first (ref ranges,
// manifest alignment, export-id coverage, per-level instruction counts),
// then the same bit-parallel simulation schedule plan.Verify uses
// (plan.SimRounds/SimFill/EvalWord), emulating the router over 64 packed
// assignments per word in lockstep with the plan. Split places contiguous
// runs of each level on shards 0..n-1 in order, so the shards' levels,
// concatenated in shard order, stand for the plan's level instruction by
// instruction: every sharded instruction is compared with its plan
// instruction — a miswired value is caught even where no output observes
// it — and the outputs with the unsharded plan's. Definedness is tracked
// per slot, so a read of a never-filled remote slot or never-written local
// slot is caught even when its garbage value happens to agree.
func Verify(p *plan.Plan, s *Sharding) (*VerifyReport, error) {
	if p == nil || s == nil {
		return nil, fmt.Errorf("%w: nil plan or sharding", ErrShape)
	}
	np := p.NumInputs
	levels := p.Levels()
	n := len(s.Shards)
	if n == 0 || len(s.Fills) != n || len(s.ExportIDs) != n {
		return nil, fmt.Errorf("%w: %d shards, %d fill tables, %d export tables", ErrShape, n, len(s.Fills), len(s.ExportIDs))
	}
	if len(s.Outputs) != len(p.Outputs()) {
		return nil, fmt.Errorf("%w: %d output sources, plan has %d outputs", ErrShape, len(s.Outputs), len(p.Outputs()))
	}
	report := &VerifyReport{Shards: n, CutEdges: s.CutEdges}

	// Structural pass: each shard's own shape (Validate), manifest
	// alignment, and that the per-level instruction counts across shards
	// add up to the plan's.
	seenExport := make([]bool, s.CutEdges)
	for w, sh := range s.Shards {
		if sh == nil {
			return nil, fmt.Errorf("%w: shard %d is nil", ErrShape, w)
		}
		if len(sh.Levels) != len(levels) {
			return nil, fmt.Errorf("%w: shard %d has %d levels, plan has %d", ErrShape, w, len(sh.Levels), len(levels))
		}
		if err := sh.Validate(); err != nil {
			return nil, err
		}
		if len(s.Fills[w]) != len(levels) || len(s.ExportIDs[w]) != len(levels) {
			return nil, fmt.Errorf("%w: shard %d manifest not level-aligned", ErrShape, w)
		}
		for li := range sh.Levels {
			report.Instructions += len(sh.Levels[li])
			if len(sh.Exports[li]) != len(s.ExportIDs[w][li]) {
				return nil, fmt.Errorf("%w: shard %d level %d exports %d refs but %d ids",
					ErrShape, w, li, len(sh.Exports[li]), len(s.ExportIDs[w][li]))
			}
			for k := range sh.Exports[li] {
				e := s.ExportIDs[w][li][k]
				if e < 0 || int(e) >= s.CutEdges {
					return nil, fmt.Errorf("%w: shard %d level %d export id %d outside [0,%d)", ErrShape, w, li, e, s.CutEdges)
				}
				if seenExport[e] {
					return nil, fmt.Errorf("%w: export id %d produced twice", ErrRouting, e)
				}
				seenExport[e] = true
			}
			for _, f := range s.Fills[w][li] {
				report.Fills++
				if f.Slot < 0 || f.Slot >= int32(sh.NumRemote) {
					return nil, fmt.Errorf("%w: shard %d level %d fill targets slot %d (remotes are [0,%d))",
						ErrShape, w, li, f.Slot, sh.NumRemote)
				}
				switch {
				case f.Input >= 0 && f.Export < 0:
					if f.Input >= int32(np) {
						return nil, fmt.Errorf("%w: fill reads run input %d of %d", ErrShape, f.Input, np)
					}
				case f.Export >= 0 && f.Input < 0:
					if int(f.Export) >= s.CutEdges {
						return nil, fmt.Errorf("%w: fill reads export %d of %d", ErrShape, f.Export, s.CutEdges)
					}
				default:
					return nil, fmt.Errorf("%w: fill names both or neither of input/export (%d,%d)", ErrShape, f.Input, f.Export)
				}
			}
		}
	}
	for e, ok := range seenExport {
		if !ok {
			return nil, fmt.Errorf("%w: export id %d never produced", ErrRouting, e)
		}
	}
	for li := range levels {
		shardCount := 0
		for _, sh := range s.Shards {
			shardCount += len(sh.Levels[li])
		}
		if shardCount != len(levels[li]) {
			return nil, fmt.Errorf("%w: level %d has %d plan instrs but %d sharded", ErrShape, li, len(levels[li]), shardCount)
		}
	}
	for i, src := range s.Outputs {
		switch {
		case src.Input >= 0 && src.Export < 0:
			if src.Input >= int32(np) {
				return nil, fmt.Errorf("%w: output %d reads run input %d of %d", ErrShape, i, src.Input, np)
			}
		case src.Export >= 0 && src.Input < 0:
			if int(src.Export) >= s.CutEdges {
				return nil, fmt.Errorf("%w: output %d reads export %d of %d", ErrShape, i, src.Export, s.CutEdges)
			}
		case src.Const == plan.ConstFalse || src.Const == plan.ConstTrue:
		default:
			return nil, fmt.Errorf("%w: output %d has no source", ErrShape, i)
		}
	}

	// Simulation pass: emulate the router bit-parallel over the same
	// deterministic vector schedule plan.Verify uses, with per-slot
	// definedness tracking.
	rounds, exhaustive := plan.SimRounds(np)
	report.Exhaustive = exhaustive
	report.Vectors = rounds * 64
	rng := plan.NewSimRNG()
	inWords := make([]uint64, np)
	planWords := make([]uint64, np+p.ArenaSlots())
	exports := make([]uint64, s.CutEdges)
	exportReady := make([]bool, s.CutEdges)
	words := make([][]uint64, n)
	defined := make([][]bool, n)
	for w, sh := range s.Shards {
		words[w] = make([]uint64, sh.NumRemote+sh.NumLocal)
		defined[w] = make([]bool, sh.NumRemote+sh.NumLocal)
	}
	for r := 0; r < rounds; r++ {
		plan.SimFill(inWords, r, exhaustive, rng)
		copy(planWords, inWords)
		for e := range exportReady {
			exportReady[e] = false
		}
		for w := range defined {
			for i := range defined[w] {
				defined[w][i] = false
			}
		}
		for li, lv := range levels {
			for _, ins := range lv {
				planWords[ins.Out] = evalInstrWord(ins, planWords[ins.A], planWords[ins.B], planWords, ins.C)
			}
			// The router installs every shard's fills for a level before
			// any shard executes it; the simulation must match, so a fill
			// consuming a same-level export is caught as unrouteable.
			for w := range s.Shards {
				for _, f := range s.Fills[w][li] {
					if f.Input >= 0 {
						words[w][f.Slot] = inWords[f.Input]
					} else {
						if !exportReady[f.Export] {
							return nil, fmt.Errorf("%w: shard %d level %d fill consumes export %d before it is produced",
								ErrRouting, w, li, f.Export)
						}
						words[w][f.Slot] = exports[f.Export]
					}
					defined[w][f.Slot] = true
				}
			}
			off := 0 // the plan instruction the next sharded one stands for
			for w, sh := range s.Shards {
				for k, ins := range sh.Levels[li] {
					if !defined[w][ins.A] || !defined[w][ins.B] || (ins.Arity >= 3 && !defined[w][ins.C]) {
						return nil, fmt.Errorf("%w: shard %d level %d instr %d reads an undefined slot", ErrRouting, w, li, k)
					}
					words[w][ins.Out] = evalInstrWord(ins, words[w][ins.A], words[w][ins.B], words[w], ins.C)
					defined[w][ins.Out] = true
					if words[w][ins.Out] != planWords[lv[off].Out] {
						return nil, fmt.Errorf("%w: shard %d level %d instr %d differs from plan instr %d (round %d)",
							ErrSemantics, w, li, k, off, r)
					}
					off++
				}
				for k, ref := range sh.Exports[li] {
					if !defined[w][ref] {
						return nil, fmt.Errorf("%w: shard %d level %d exports undefined ref %d", ErrRouting, w, li, ref)
					}
					exports[s.ExportIDs[w][li][k]] = words[w][ref]
					exportReady[s.ExportIDs[w][li][k]] = true
				}
			}
		}
		for i, src := range s.Outputs {
			var got uint64
			switch {
			case src.Input >= 0:
				got = inWords[src.Input]
			case src.Export >= 0:
				got = exports[src.Export]
			case src.Const == plan.ConstTrue:
				got = ^uint64(0)
			default:
				got = 0
			}
			ref := p.Outputs()[i]
			var want uint64
			switch {
			case ref == plan.ConstFalse:
				want = 0
			case ref == plan.ConstTrue:
				want = ^uint64(0)
			default:
				want = planWords[ref]
			}
			if got != want {
				return nil, fmt.Errorf("%w: output %d differs on simulated assignments (round %d)", ErrSemantics, i, r)
			}
		}
	}
	return report, nil
}
