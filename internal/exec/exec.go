// Package exec is the shared execution core behind every in-process CPU
// backend and the cluster. It holds, exactly once:
//
//   - the evaluator: Eval computes one gate.Op now, and Batcher adds the
//     "join the pending kernel batch, flush at size" logic on top. The
//     netlist drivers here call Eval and the plan interpreter (plan.Interp,
//     which also runs cluster shards) evaluates through a Batcher, so
//     batcher.go is the only file in the executor packages that calls the
//     gate engine;
//   - the two netlist drivers: RunSequential (the reference every test
//     compares against) and RunLevels (Algorithm 1 of the paper: wavefront
//     and barrier, the baseline of Fig. 10);
//   - what they run over: typed input validation, the node→ciphertext value
//     table with fan-out refcount release (State), the one ciphertext
//     recycler (Arena: fed by State releases in the netlist drivers, by
//     compile-time liveness in plans), per-worker engine sets, Stats and
//     output collection.
//
// Every other multi-worker run is a compiled plan, scheduled by
// backend.Shared rather than here; the backends of internal/backend are
// one constructor per way of ordering work.
//
// The split mirrors the compiler/runtime factoring of CHET and MATCHA's
// treatment of bootstrap scheduling as a policy over a fixed kernel
// substrate: many compiled forms, one runtime that evaluates them.
//
//pytfhe:execlayer
package exec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"pytfhe/internal/circuit"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// ErrNilInput marks a nil ciphertext among a run's inputs. Before this
// check existed, a nil *lwe.Sample slipped through to in.Dimension() and
// panicked inside the executor; now every backend rejects it up front with
// an error callers can classify via errors.Is.
var ErrNilInput = errors.New("exec: nil input ciphertext")

// CheckRawInputs validates a run's inputs against the expected count (a
// netlist's or a plan's): count, non-nil, and LWE dimension. A
// non-positive dim skips the dimension check — the Plain backend takes
// whatever dimension the trivial samples carry.
func CheckRawInputs(inputs []*lwe.Sample, want, dim int) error {
	if len(inputs) != want {
		return fmt.Errorf("exec: %d inputs supplied, want %d", len(inputs), want)
	}
	for i, in := range inputs {
		if in == nil {
			return fmt.Errorf("%w: input %d", ErrNilInput, i)
		}
		if dim > 0 && in.Dimension() != dim {
			return fmt.Errorf("exec: input %d has dimension %d, want %d", i, in.Dimension(), dim)
		}
	}
	return nil
}

// State is the per-run value table every driver executes over: one slot per
// netlist node (inputs installed at construction), plus the atomic fan-out
// refcounts that drive ciphertext recycling. Inputs are never recycled (the
// caller owns them) and outputs hold one fan-out reference each
// (circuit.FanOut counts them), so a result can never be returned to the
// Arena before Collect reads it, even when the output node also feeds
// interior gates.
//
//pytfhe:runstate
type State struct {
	nl *circuit.Netlist
	// Values is the node-indexed ciphertext table; drivers publish each
	// gate's output at Values[nl.GateID(i)].
	Values []*lwe.Sample
	refs   []int32
}

// NewState validates the inputs and builds the value table and refcounts
// for one run of nl.
func NewState(nl *circuit.Netlist, inputs []*lwe.Sample, dim int) (*State, error) {
	if err := CheckRawInputs(inputs, nl.NumInputs, dim); err != nil {
		return nil, err
	}
	st := &State{nl: nl, Values: make([]*lwe.Sample, nl.NumNodes()+1)}
	for i, in := range inputs {
		st.Values[i+1] = in
	}
	fan := nl.FanOut()
	st.refs = make([]int32, len(fan))
	for i, f := range fan {
		st.refs[i] = int32(f)
	}
	return st, nil
}

// Release drops one fan-out reference to a node after a reader finished
// with it; the last reader hands the ciphertext to mem and clears the slot.
// Constants and inputs are never released. The decrement is atomic, so any
// number of workers may release concurrently; every reader decrements only
// after finishing its own evaluation, so nobody can still be reading a
// slot that reaches zero.
func (s *State) Release(id circuit.NodeID, mem *Arena) {
	if id <= 0 || s.nl.IsInput(id) {
		return
	}
	if atomic.AddInt32(&s.refs[id], -1) == 0 {
		mem.Put(s.Values[id])
		s.Values[id] = nil
	}
}

// Collect materializes the run's output ciphertexts from the value table.
func (s *State) Collect(dim int) ([]*lwe.Sample, error) {
	return CollectOutputs(dim, s.nl.Outputs, func(id circuit.NodeID) *lwe.Sample {
		return s.Values[id]
	})
}

// CollectOutputs is the single output-collection implementation: ids are
// circuit node IDs or plan refs (both use the ConstFalse=-1 / ConstTrue=-2
// sentinels), lookup resolves a non-constant id to its table entry, and
// every output is copied into a fresh ciphertext the caller owns.
func CollectOutputs[Ref ~int32 | ~int64](dim int, ids []Ref, lookup func(Ref) *lwe.Sample) ([]*lwe.Sample, error) {
	outs := make([]*lwe.Sample, len(ids))
	for i, id := range ids {
		out := lwe.NewSample(dim)
		switch {
		case id == Ref(circuit.ConstTrue):
			gate.Trivial(out, true)
		case id == Ref(circuit.ConstFalse):
			gate.Trivial(out, false)
		default:
			v := lookup(id)
			if v == nil {
				return nil, fmt.Errorf("exec: output %d references freed node %d", i, id)
			}
			out.Copy(v)
		}
		outs[i] = out
	}
	return outs, nil
}
