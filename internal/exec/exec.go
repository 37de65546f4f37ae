// Package exec is the shared execution core behind every in-process CPU
// backend and the cluster. It holds, exactly once:
//
//   - the evaluator: Batcher computes one gate.Op now, or joins it to the
//     pending kernel batch and flushes at size. The plan interpreter
//     (plan.Interp) evaluates every instruction through one, so batcher.go
//     is the only file in the executor packages that calls the gate engine;
//   - what a run needs around it: typed input validation (CheckRawInputs),
//     the one ciphertext recycler (Arena, whose slots plans bind by
//     compile-time liveness), Stats and output collection (CollectOutputs).
//
// There is no netlist driver here: every backend compiles its program into
// a plan and replays it, sequentially with plan.Replay (Single) or on
// backend.Shared's slice scheduler (Planned, which the pool backend runs
// unbatched, pytfhed and cluster shards).
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

// CollectOutputs is the single output-collection implementation: ids are
// plan refs, with circuit's ConstFalse=-1 / ConstTrue=-2 sentinels, lookup
// resolves a non-constant ref to its table entry, and every output is
// copied into a fresh ciphertext the caller owns.
func CollectOutputs(dim int, ids []int32, lookup func(int32) *lwe.Sample) ([]*lwe.Sample, error) {
	outs := make([]*lwe.Sample, len(ids))
	for i, id := range ids {
		out := lwe.NewSample(dim)
		switch id {
		case int32(circuit.ConstTrue):
			gate.Trivial(out, true)
		case int32(circuit.ConstFalse):
			gate.Trivial(out, false)
		default:
			v := lookup(id)
			if v == nil {
				return nil, fmt.Errorf("exec: output %d references unwritten ref %d", i, id)
			}
			out.Copy(v)
		}
		outs[i] = out
	}
	return outs, nil
}
