package plan

import (
	"fmt"

	"pytfhe/internal/exec"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// Runtime holds the mutable replay state: the arena ciphertexts and the
// resolved value table. It persists across replays — of the same plan or,
// rebound, of any plan at the same LWE dimension — which is what makes the
// second and later runs allocation-free (output ciphertexts excepted — the
// caller owns those). A Runtime serves one replay at a time. Shards run
// over it too: a cluster worker keeps one per cached shard, with no input
// slots; the router's values are copied into its slots (Fill) and its
// exports read back (Value).
//
//pytfhe:runstate
type Runtime struct {
	dim int
	// pool is the shared execution core's liveness arena: slots are bound
	// once per plan by the compile-time liveness analysis instead of
	// refcounted at runtime, and the arena's own accounting supplies the
	// high-water figure.
	pool *exec.Arena
	// vals is the ref-indexed value table: the first numInputs entries
	// are the caller's input ciphertexts (rebound per replay), the rest
	// are arena slots allocated lazily the first time a level writes or a
	// Fill copies into them.
	vals      []*lwe.Sample
	numInputs int
}

// NewRuntime returns a replay runtime allocating ciphertexts of the given
// LWE dimension.
func NewRuntime(dim int) *Runtime { return &Runtime{dim: dim, pool: exec.NewArena(dim)} }

// HighWater returns the largest number of arena ciphertexts this runtime
// has held live at once across all replays.
func (rt *Runtime) HighWater() int { return rt.pool.HighWater() }

// Reset returns every arena ciphertext (filled slots included) to the free
// list and drops the inputs; the table keeps its shape, so a slot not
// written or filled since reads as unwritten.
func (rt *Runtime) Reset() {
	for i := range rt.vals {
		if i >= rt.numInputs {
			rt.pool.Put(rt.vals[i])
		}
		rt.vals[i] = nil
	}
}

// Bind validates one run's inputs against p (count, non-nil, LWE
// dimension), sizes the value table to p's arena bound and installs the
// inputs. Pair it with Unbind.
func (rt *Runtime) Bind(p *Plan, inputs []*lwe.Sample) error {
	if err := exec.CheckRawInputs(inputs, p.NumInputs, rt.dim); err != nil {
		return err
	}
	rt.Shape(len(inputs), p.stats.ArenaSlots)
	copy(rt.vals, inputs)
	return nil
}

// Shape sizes the value table for numInputs input slots followed by slots
// arena slots.
func (rt *Runtime) Shape(numInputs, slots int) {
	if rt.numInputs != numInputs {
		// A different program: every slot shifts.
		rt.Reset()
		rt.numInputs = numInputs
	}
	for len(rt.vals) < numInputs+slots {
		rt.vals = append(rt.vals, nil)
	}
}

// Fill copies v into arena slot slot, reusing the ciphertext the slot
// already holds; the runtime keeps nothing of v. The slot, v and its LWE
// dimension are checked, as Bind checks a run's inputs.
//
//pytfhe:singlewriter
func (rt *Runtime) Fill(slot int, v *lwe.Sample) error {
	switch {
	case slot < rt.numInputs || slot >= len(rt.vals):
		return fmt.Errorf("plan: fill slot %d outside [%d,%d)", slot, rt.numInputs, len(rt.vals))
	case v == nil:
		return fmt.Errorf("%w: fill slot %d", exec.ErrNilInput, slot)
	case v.Dimension() != rt.dim:
		return fmt.Errorf("plan: fill slot %d has dimension %d, want %d", slot, v.Dimension(), rt.dim)
	}
	out := rt.vals[slot]
	if out == nil {
		out = rt.pool.Get()
		rt.vals[slot] = out
	}
	out.Copy(v)
	return nil
}

// Value returns the ciphertext at ref (still the runtime's), or nil when
// ref is outside the table or unwritten.
func (rt *Runtime) Value(ref Ref) *lwe.Sample {
	if ref < 0 || int(ref) >= len(rt.vals) {
		return nil
	}
	return rt.vals[ref]
}

// Unbind drops the run's input refs (the caller owns the inputs; holding
// them would pin their memory).
func (rt *Runtime) Unbind() {
	for i := 0; i < rt.numInputs && i < len(rt.vals); i++ {
		rt.vals[i] = nil
	}
}

// Exec evaluates instrs over the runtime's value table on it (see
// Interp.Run). Instructions of one level write disjoint slots, so any
// number of interpreters may Exec parts of the same level at once.
//
//pytfhe:bootstraps
func (rt *Runtime) Exec(it *Interp, instrs []Instr, flush bool) error {
	return it.Run(instrs, rt.vals, rt.pool, flush)
}

// Collect materializes p's output ciphertexts from the value table via the
// shared execution core's collector; every output is a fresh copy.
func (rt *Runtime) Collect(p *Plan) ([]*lwe.Sample, error) {
	return exec.CollectOutputs(rt.dim, p.outputs, rt.Value)
}

// Counts is what an Interp has executed since its owner last cleared it.
type Counts struct {
	Instrs     int64 // instructions, free gates included
	Bootstraps int64 // bootstrapped instructions (LUTs included)
	LUTs       int64 // multi-input LUT instructions
	Batches    int64 // batched kernel dispatches (zero at batch ≤ 1)
}

// Interp is the one interpreter of plan instructions: it resolves each
// instruction's slots in a value table and hands the operation to an
// exec.Batcher, the evaluator plans share with netlists. Replay and the
// slice scheduler's workers (backend.Shared, which runs plans and cluster
// shard levels alike) run instructions through it. An Interp belongs to
// one goroutine.
type Interp struct {
	bt *exec.Batcher

	// N accumulates across Run calls; the owner reads and clears it.
	N Counts
}

// NewInterp returns an interpreter on eng that groups up to batch
// bootstrapped instructions per kernel dispatch (batch ≤ 1: every
// instruction evaluates on its own).
func NewInterp(eng *gate.Engine, batch int) *Interp {
	return &Interp{bt: exec.NewBatcher(eng, batch)}
}

// Pending reports how many bootstrapped instructions wait in the partial
// batch.
func (it *Interp) Pending() int { return it.bt.Pending() }

// Run evaluates instrs — mutually independent instructions, e.g. part of
// one plan level — over the value table vals. Output slots are taken from
// mem on first touch; each slot is written by exactly one instruction per
// level, so concurrent interpreters on one table never collide. Free
// instructions evaluate where they appear; bootstrapped ones join the
// pending batch, which is dispatched whenever it reaches the batch size
// and, when flush is set, once more at the end. With flush unset a partial
// batch stays pending so a later Run — on any table whose instructions are
// independent of these — can fill it; Run(nil, nil, nil, true) dispatches
// it. On error the pending batch is dropped.
//
//pytfhe:bootstraps
func (it *Interp) Run(instrs []Instr, vals []*lwe.Sample, mem *exec.Arena, flush bool) (err error) {
	defer func() {
		it.N.Batches += it.bt.Batches
		it.bt.Batches = 0
		if err != nil {
			it.bt.Drop()
			err = fmt.Errorf("plan: replay: %w", err)
		}
	}()
	for _, ins := range instrs {
		a, b := vals[ins.A], vals[ins.B]
		var c *lwe.Sample
		if ins.Arity >= 3 {
			c = vals[ins.C]
		}
		if a == nil || b == nil || (ins.Arity >= 3 && c == nil) {
			return fmt.Errorf("instr reads unwritten slot (%d,%d,%d)", ins.A, ins.B, ins.C)
		}
		out := vals[ins.Out]
		if out == nil {
			out = mem.Get()
			vals[ins.Out] = out
		}
		it.N.Instrs++
		if ins.IsLUT() {
			it.N.LUTs++
		}
		if ins.NeedsBootstrap() {
			it.N.Bootstraps++
		}
		if _, err := it.bt.Do(gate.Op{Kind: ins.Kind, TT: ins.TT, Arity: ins.Arity}, out, a, b, c); err != nil {
			return err
		}
	}
	if flush {
		return it.bt.Flush()
	}
	return nil
}

// Replay executes a plan level by level on one interpreter: the sequential
// oracle this package's tests compare compiled plans against. Everything
// that runs plans for real — backend.Planned, pytfhed — goes through
// backend.Shared's slice scheduler instead. The returned slice parallels
// the source netlist's outputs and is freshly allocated; inputs are not
// modified.
func Replay(p *Plan, it *Interp, inputs []*lwe.Sample, rt *Runtime) ([]*lwe.Sample, error) {
	if err := rt.Bind(p, inputs); err != nil {
		return nil, err
	}
	defer rt.Unbind()
	for _, lv := range p.levels {
		if err := rt.Exec(it, lv, true); err != nil {
			return nil, err
		}
	}
	return rt.Collect(p)
}
