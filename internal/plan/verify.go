package plan

import (
	"errors"
	"fmt"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// Verification failure classes. Every defect a miscompiled plan can
// exhibit maps to exactly one sentinel, so mutation tests (and callers
// triaging a failed check) can classify with errors.Is.
var (
	// ErrShape: the plan is structurally malformed — ref out of range,
	// unknown gate kind, input/output counts inconsistent with the
	// netlist, or a missing dedup map.
	ErrShape = errors.New("plan: verify: malformed plan")
	// ErrOrder: an instruction reads an arena slot no earlier level wrote
	// (its dependency was dropped or scheduled after it), or an output
	// names a never-written slot.
	ErrOrder = errors.New("plan: verify: dependency order violated")
	// ErrLifetime: a level is not independent — a slot written twice in
	// one wavefront, or read and written in the same one. Run time may
	// cut a level anywhere, spread the parts over workers and batch any
	// of its bootstraps into one kernel dispatch, so such a read races
	// the write or sees a pending, uncomputed ciphertext.
	ErrLifetime = errors.New("plan: verify: arena slot lifetimes overlap")
	// ErrDedup: the compiler merged two netlist nodes that are not
	// functionally identical (caught by independent cone simulation, not
	// by trusting the compiler's own truth tables).
	ErrDedup = errors.New("plan: verify: dedup class not functionally identical")
	// ErrSemantics: the plan's outputs differ from the netlist's under
	// some input assignment.
	ErrSemantics = errors.New("plan: verify: plan output differs from netlist")
)

// VerifyReport summarizes a successful verification.
type VerifyReport struct {
	Instructions int // instructions across all levels
	Levels       int
	ArenaSlots   int
	MergedNodes  int // netlist gates folded onto an earlier node
	DedupClasses int // dedup classes with at least two members
	Vectors      int // input assignments simulated
	Exhaustive   bool
}

func (r *VerifyReport) String() string {
	mode := "sampled"
	if r.Exhaustive {
		mode = "exhaustive"
	}
	return fmt.Sprintf("plan verified: %d instrs / %d levels / %d slots, %d merged nodes in %d classes, %d vectors (%s)",
		r.Instructions, r.Levels, r.ArenaSlots, r.MergedNodes, r.DedupClasses, r.Vectors, mode)
}

// Verify re-derives, from scratch, that the compiled plan is equivalent to
// its source netlist under any run-time schedule: structural shape,
// dependency ordering, the independence of every level (which makes any
// cut, order and batching of a level equivalent to sequential replay),
// the functional identity of every dedup merge, and input/output
// equivalence by bit-parallel simulation (exhaustive up to 12 inputs,
// randomized beyond). It trusts nothing the compiler computed beyond the
// plan itself and its node→exec map.
func Verify(nl *circuit.Netlist, p *Plan) (*VerifyReport, error) {
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("plan: verify: source netlist invalid: %w", err)
	}
	if p == nil {
		return nil, fmt.Errorf("%w: nil plan", ErrShape)
	}
	np := p.NumInputs
	if np != nl.NumInputs {
		return nil, fmt.Errorf("%w: plan has %d inputs, netlist %d", ErrShape, np, nl.NumInputs)
	}
	if len(p.outputs) != len(nl.Outputs) {
		return nil, fmt.Errorf("%w: plan has %d outputs, netlist %d", ErrShape, len(p.outputs), len(nl.Outputs))
	}
	arena := p.stats.ArenaSlots
	nRefs := np + arena

	// The dedup map is the one compiler artifact the checks below consume
	// — and only as a *claim* to refute: every merge it records is
	// re-simulated independently.
	execOf := p.execOf
	if len(execOf) != nl.NumNodes()+1 {
		return nil, fmt.Errorf("%w: dedup map covers %d nodes, netlist has %d", ErrShape, len(execOf), nl.NumNodes()+1)
	}
	maxExec := int32(np + p.stats.ExecGates)
	for i := 1; i <= np; i++ {
		if execOf[i] != int32(i-1) {
			return nil, fmt.Errorf("%w: input %d mapped to exec node %d", ErrShape, i, execOf[i])
		}
	}
	for i := range nl.Gates {
		id := nl.GateID(i)
		if e := execOf[id]; e < 0 || e >= maxExec {
			return nil, fmt.Errorf("%w: gate node %d mapped to exec node %d of %d", ErrShape, id, e, maxExec)
		}
	}

	// Structural schedule scan: one forward pass over the levels. stamp[ref]
	// is 1 + the last level that wrote ref and site[ref] the instruction
	// that did, so one pass over a level's writes and one over its reads
	// check its independence and its dependency order.
	report := &VerifyReport{Levels: len(p.levels), ArenaSlots: arena}
	stamp := make([]int32, nRefs)
	site := make([]int32, nRefs)
	for li, lv := range p.levels {
		cur := int32(li + 1)
		for k, ins := range lv {
			report.Instructions++
			if ins.IsLUT() {
				if ins.Arity < 2 || int(ins.Arity) > logic.MaxLUTArity {
					return nil, fmt.Errorf("%w: level %d instr %d has LUT arity %d", ErrShape, li, k, ins.Arity)
				}
				if ins.TT&^logic.TTMask(int(ins.Arity)) != 0 {
					return nil, fmt.Errorf("%w: level %d instr %d has table %#x wider than 2^%d", ErrShape, li, k, ins.TT, ins.Arity)
				}
				if !logic.LUTFeasible(int(ins.Arity), ins.TT) {
					return nil, fmt.Errorf("%w: level %d instr %d has LUT table %#x with no single-bootstrap plan", ErrShape, li, k, ins.TT)
				}
				if ins.Arity >= 3 && (ins.C < 0 || ins.C >= Ref(nRefs)) {
					return nil, fmt.Errorf("%w: level %d instr %d reads ref %d (valid range [0,%d))", ErrShape, li, k, ins.C, nRefs)
				}
			} else if ins.Kind >= logic.NumKinds {
				return nil, fmt.Errorf("%w: level %d instr %d has kind %d", ErrShape, li, k, ins.Kind)
			}
			if ins.Out < Ref(np) || ins.Out >= Ref(nRefs) {
				return nil, fmt.Errorf("%w: level %d instr %d writes ref %d (arena is [%d,%d))", ErrShape, li, k, ins.Out, np, nRefs)
			}
			if ins.A < 0 || ins.A >= Ref(nRefs) || ins.B < 0 || ins.B >= Ref(nRefs) {
				return nil, fmt.Errorf("%w: level %d instr %d reads refs %d,%d (valid range [0,%d))", ErrShape, li, k, ins.A, ins.B, nRefs)
			}
			if stamp[ins.Out] == cur {
				return nil, fmt.Errorf("%w: level %d: ref %d written by instr %d and instr %d",
					ErrLifetime, li, ins.Out, site[ins.Out], k)
			}
			stamp[ins.Out], site[ins.Out] = cur, int32(k)
		}
		for k, ins := range lv {
			reads := [3]Ref{ins.A, ins.B, ins.A}
			nReads := 2
			if ins.Arity >= 3 {
				reads[2] = ins.C
				nReads = 3
			}
			for _, ref := range reads[:nReads] {
				switch {
				case ref < Ref(np):
					// caller-owned input, immutable during replay
				case stamp[ref] == cur:
					return nil, fmt.Errorf("%w: level %d: ref %d read by instr %d while instr %d rewrites it",
						ErrLifetime, li, ref, k, site[ref])
				case stamp[ref] == 0:
					return nil, fmt.Errorf("%w: level %d instr %d reads ref %d before any level writes it",
						ErrOrder, li, k, ref)
				}
			}
		}
	}

	for i, ref := range p.outputs {
		switch {
		case ref == ConstFalse || ref == ConstTrue:
		case ref < 0 || ref >= Ref(nRefs):
			return nil, fmt.Errorf("%w: output %d names ref %d (valid range [0,%d) or const)", ErrShape, i, ref, nRefs)
		case ref >= Ref(np) && stamp[ref] == 0:
			return nil, fmt.Errorf("%w: output %d reads ref %d that no level writes", ErrOrder, i, ref)
		}
	}

	// Dedup classes: every set of netlist nodes the compiler mapped onto
	// one exec node must agree under simulation. Inputs participate too —
	// a gate folded onto an input (COPY collapse) is checked against the
	// raw input column.
	classOf := make(map[int32][]circuit.NodeID)
	for i := 1; i <= np; i++ {
		classOf[execOf[i]] = append(classOf[execOf[i]], circuit.NodeID(i))
	}
	for i := range nl.Gates {
		id := nl.GateID(i)
		e := execOf[id]
		if len(classOf[e]) > 0 {
			report.MergedNodes++
		}
		classOf[e] = append(classOf[e], id)
	}
	var classes [][]circuit.NodeID
	for _, members := range classOf {
		if len(members) > 1 {
			classes = append(classes, members)
		}
	}
	report.DedupClasses = len(classes)

	// Bit-parallel simulation: 64 input assignments per word per round.
	// Up to 12 inputs every assignment is covered; beyond that, fixed
	// corner rounds plus deterministic random rounds.
	rounds, exhaustive := SimRounds(np)
	report.Exhaustive = exhaustive
	report.Vectors = rounds * 64
	rng := NewSimRNG()
	netWords := make([]uint64, nl.NumNodes()+1)
	planWords := make([]uint64, nRefs)
	inWords := make([]uint64, np)
	netAt := func(id circuit.NodeID) uint64 {
		switch id {
		case circuit.ConstFalse:
			return 0
		case circuit.ConstTrue:
			return ^uint64(0)
		}
		return netWords[id]
	}
	for r := 0; r < rounds; r++ {
		SimFill(inWords, r, report.Exhaustive, rng)
		for i := 0; i < np; i++ {
			netWords[i+1] = inWords[i]
			planWords[i] = inWords[i]
		}
		for i := range nl.Gates {
			g := &nl.Gates[i]
			if g.IsLUT() {
				netWords[nl.GateID(i)] = EvalWordTT(g.TT, int(g.Arity),
					netAt(g.A), netAt(g.B), netAt(g.C))
			} else {
				netWords[nl.GateID(i)] = EvalWord(g.Kind, netWords[g.A], netWords[g.B])
			}
		}
		for _, lv := range p.levels {
			for _, ins := range lv {
				if ins.IsLUT() {
					var c uint64
					if ins.Arity >= 3 {
						c = planWords[ins.C]
					}
					planWords[ins.Out] = EvalWordTT(ins.TT, int(ins.Arity), planWords[ins.A], planWords[ins.B], c)
				} else {
					planWords[ins.Out] = EvalWord(ins.Kind, planWords[ins.A], planWords[ins.B])
				}
			}
		}
		for _, members := range classes {
			want := netAt(members[0])
			for _, id := range members[1:] {
				if netAt(id) != want {
					return nil, fmt.Errorf("%w: nodes %d and %d share exec node %d but differ on simulated assignments",
						ErrDedup, members[0], id, execOf[members[0]])
				}
			}
		}
		for i, ref := range p.outputs {
			var got uint64
			switch {
			case ref == ConstFalse:
				got = 0
			case ref == ConstTrue:
				got = ^uint64(0)
			default:
				got = planWords[ref]
			}
			if want := netAt(nl.Outputs[i]); got != want {
				return nil, fmt.Errorf("%w: output %d differs on simulated assignments (round %d)", ErrSemantics, i, r)
			}
		}
	}
	return report, nil
}

// EvalWordTT evaluates a k-input LUT over 64 packed boolean assignments by
// minterm masks (c is ignored at arity 2). Like EvalWord it is exported
// for internal/shard's decomposition verifier.
func EvalWordTT(tt logic.TT, arity int, a, b, c uint64) uint64 {
	words := [3]uint64{a, b, c}
	var out uint64
	for v := 0; v < 1<<arity; v++ {
		if !tt.Eval(uint8(v)) {
			continue
		}
		m := ^uint64(0)
		for i := 0; i < arity; i++ {
			if v>>(arity-1-i)&1 == 1 {
				m &= words[i]
			} else {
				m &= ^words[i]
			}
		}
		out |= m
	}
	return out
}

// EvalWord evaluates one gate over 64 packed boolean assignments by
// minterm masks. It is exported for internal/shard, whose decomposition
// verifier replays the same bit-parallel simulation over a sharded plan.
func EvalWord(k logic.Kind, a, b uint64) uint64 {
	var out uint64
	if k.EvalBit(0, 0)&1 == 1 {
		out |= ^a & ^b
	}
	if k.EvalBit(0, 1)&1 == 1 {
		out |= ^a & b
	}
	if k.EvalBit(1, 0)&1 == 1 {
		out |= a & ^b
	}
	if k.EvalBit(1, 1)&1 == 1 {
		out |= a & b
	}
	return out
}

// lanePatterns[i] assigns input i the i-th bit of the lane index, covering
// all 64 assignments of six inputs in one word.
var lanePatterns = func() [6]uint64 {
	var p [6]uint64
	for i := 0; i < 6; i++ {
		for lane := 0; lane < 64; lane++ {
			if lane>>i&1 == 1 {
				p[i] |= 1 << lane
			}
		}
	}
	return p
}()

// SimRounds sizes the bit-parallel simulation for a circuit with np
// inputs: the number of 64-lane rounds and whether those rounds enumerate
// every input assignment (np ≤ 12) or sample corners plus random words.
// Shared by Verify and internal/shard's decomposition verifier so both run
// the identical vector schedule.
func SimRounds(np int) (rounds int, exhaustive bool) {
	if np <= 12 {
		rounds = 1
		if np > 6 {
			rounds = 1 << (np - 6)
		}
		return rounds, true
	}
	return 10, false
}

// SimFill loads one round of input assignments: exhaustive rounds
// enumerate inputs 7.. through the round index; sampled rounds use the
// all-zero and all-one corners then deterministic random words.
func SimFill(in []uint64, round int, exhaustive bool, rng *SimRNG) {
	if exhaustive {
		for i := range in {
			if i < 6 {
				in[i] = lanePatterns[i]
			} else if round>>(i-6)&1 == 1 {
				in[i] = ^uint64(0)
			} else {
				in[i] = 0
			}
		}
		return
	}
	switch round {
	case 0:
		for i := range in {
			in[i] = 0
		}
	case 1:
		for i := range in {
			in[i] = ^uint64(0)
		}
	default:
		for i := range in {
			in[i] = rng.Next()
		}
	}
}

// SimRNG is a tiny deterministic xorshift generator: the verifiers must
// not depend on math/rand (their own analyzers police randomness hygiene)
// and need reproducible vectors.
type SimRNG struct{ x uint64 }

// NewSimRNG returns the generator in its fixed initial state.
func NewSimRNG() *SimRNG { return &SimRNG{x: 0x9E3779B97F4A7C15} }

// Next returns the next deterministic 64-bit word.
func (s *SimRNG) Next() uint64 {
	x := s.x
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.x = x
	return x * 0x2545F4914F6CDD1D
}
