// Package plan is the execution-plan capture & replay subsystem — the CPU
// analogue of the paper's CUDA-Graph batch scheduling. Compile runs once
// per program and turns a gate netlist into an immutable Plan: levelized
// gate wavefronts, a flat ciphertext arena
// whose slot indices come from compile-time liveness analysis (replacing
// the executors' runtime refcounting), and precomputed per-instruction
// operand/output slot references. Replaying a plan needs no ready heap, no
// per-gate atomics (a level must finish before the next starts; that is
// all) and zero ciphertext allocations after warm-up, so a program served
// hundreds of times pays its scheduling cost exactly once.
//
// Capture is also where analysis that is too expensive for the dynamic
// executors runs: Compile performs bounded-support functional
// deduplication (exact truth-table sweeping over supports of up to six
// live nodes, the plan-level counterpart of internal/synth's cut-based
// resynthesis), so replay evaluates only the program's distinct boolean
// functions and shares the resulting ciphertexts. The merge is provably
// exact — two nodes merge only when their truth tables over the same
// support agree — and gate evaluation is deterministic, so replayed
// outputs decrypt bit-identically to the dynamic executors' outputs.
//
// This package compiles, verifies and interprets plans; it does not
// schedule them and starts no goroutine. Every consumer reads a plan's
// instructions through one interpreter (Interp, a thin layer over the
// evaluator it shares with netlists, exec.Batcher): the slice scheduler
// (backend.Shared), which runs plans for pytfhed and backend.Planned and
// shard levels for cluster workers, and Replay — the sequential oracle the
// tests here compare compiled plans against.
//
//pytfhe:execlayer
package plan

import (
	"sync"
	"time"

	"pytfhe/internal/logic"
)

// Ref names a replay value: refs below Plan.NumInputs index the caller's
// input ciphertexts, refs at or above it index the arena
// (slot = ref - NumInputs). Output refs may also be the two constant
// sentinels.
type Ref = int32

// Constant output sentinels, mirroring circuit.ConstFalse/ConstTrue.
const (
	ConstFalse Ref = -1
	ConstTrue  Ref = -2
)

// Instr is one captured gate evaluation, values[Out] = TT(values[A],
// values[B], values[C]), in circuit.Gate's encoding: Arity 0 is a classic
// gate whose table is its logic.Kind nibble over (A, B), Arity 2..3 a
// k-input LUT evaluated with one programmable bootstrap (C is read at
// arity 3 only). All refs are resolved at compile time.
type Instr struct {
	Out     Ref
	A, B, C Ref
	TT      logic.TT // the gate's function
	Arity   uint8    // 0: classic gate; 2..3: k-input LUT
}

// IsLUT reports whether the instruction is a multi-input LUT.
func (ins Instr) IsLUT() bool { return ins.Arity != 0 }

// NeedsBootstrap reports whether replaying the instruction costs a
// bootstrap (LUT instructions always do).
func (ins Instr) NeedsBootstrap() bool {
	return ins.Arity != 0 || logic.Kind(ins.TT).NeedsBootstrap()
}

// Cut splits one level into min(n, len(level)) contiguous, non-empty
// parts, in instruction order, whose bootstrapped-instruction counts
// differ by at most one. It is the one placement decision about a plan —
// which worker (backend.Shared) or which shard (shard.Split) evaluates
// which instructions of a wavefront — and its callers make it, not
// Compile, so a plan does not depend on the worker count it runs at.
// Parts alias level.
//
// Each part but the last takes instructions until it holds its share of
// the remaining bootstraps, ceil(left / parts left), while leaving at
// least one instruction for every later part; the last takes the rest.
// A part that has its share stops before the next bootstrapped
// instruction, so free instructions stay with the bootstrap before them.
func Cut(level []Instr, n int) [][]Instr {
	n = min(n, len(level))
	if n < 1 {
		return nil
	}
	left := 0
	for _, ins := range level {
		if ins.NeedsBootstrap() {
			left++
		}
	}
	parts := make([][]Instr, 0, n)
	for m := n; m > 1; m-- {
		share := (left + m - 1) / m
		k, boots := 0, 0
		for k < len(level)-(m-1) && (boots < share || !level[k].NeedsBootstrap()) {
			if level[k].NeedsBootstrap() {
				boots++
			}
			k++
		}
		parts = append(parts, level[:k:k])
		level, left = level[k:], left-boots
	}
	return append(parts, level)
}

// Stats summarizes what capture did to the program.
type Stats struct {
	LogicalGates      int // gates in the source netlist
	LogicalBootstraps int // bootstrapped gates in the source netlist
	LogicalLUTs       int // multi-input LUT gates in the source netlist
	ExecGates         int // instructions replay actually executes
	ExecBootstraps    int // bootstrapped instructions after deduplication
	ExecLUTs          int // LUT instructions after deduplication
	Levels            int
	ArenaSlots        int // ciphertexts the arena holds (peak liveness)
	CompileTime       time.Duration
}

// Plan is an immutable compiled execution plan. A Plan is safe to share
// between goroutines and replay concurrently (each replay brings its own
// Runtime and interpreters).
type Plan struct {
	Name      string
	NumInputs int

	levels  [][]Instr
	outputs []Ref
	stats   Stats
	execOf  []int32

	fpOnce sync.Once
	fp     string
}

// Levels exposes the level list (read-only by convention): levels[l] is
// wavefront l, mutually independent instructions in compile order.
// Finishing a level before starting the next is the only synchronization
// replay needs; how a level is spread over workers is Cut's decision, at
// run time.
func (p *Plan) Levels() [][]Instr { return p.levels }

// Outputs exposes the output refs (read-only by convention).
func (p *Plan) Outputs() []Ref { return p.outputs }

// Stats returns the capture summary.
func (p *Plan) Stats() Stats { return p.stats }

// ArenaSlots returns the arena size liveness analysis assigned.
func (p *Plan) ArenaSlots() int { return p.stats.ArenaSlots }
