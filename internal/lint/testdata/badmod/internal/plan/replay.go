// Package plan mirrors the plan interpreter and runtime.
package plan

import (
	"errors"

	"badmod/internal/exec"
	"badmod/internal/tfhe/gate"
)

// Instr mirrors a plan instruction.
type Instr struct {
	Op        gate.Op
	A, B, Out int
}

// Interp mirrors plan.Interp, which every plan runs through.
type Interp struct{ bt *exec.Batcher }

// Run leaks: it takes the output slot from the arena before checking the
// operands (the real interpreter checks first), so that error path drops
// the slot.
func (it *Interp) Run(instrs []Instr, vals []*gate.Ciphertext, mem *exec.Arena) error {
	for _, ins := range instrs {
		out := mem.Get() // finding: leaked on the error return
		a, b := vals[ins.A], vals[ins.B]
		if a == nil || b == nil {
			return errors.New("plan: instr reads unwritten slot")
		}
		vals[ins.Out] = out
		if _, err := it.bt.Do(ins.Op, out, a, b); err != nil {
			return err
		}
	}
	return nil
}

// Runtime mirrors plan.Runtime: a value table over an arena.
type Runtime struct {
	pool *exec.Arena
	vals []*gate.Ciphertext
}

// Exec evaluates instrs over the runtime's table.
func (rt *Runtime) Exec(it *Interp, instrs []Instr) error {
	return it.Run(instrs, rt.vals, rt.pool)
}

// Fill copies one ciphertext into an arena slot, as a cluster worker
// installs the router's values into a shard's slots.
func (rt *Runtime) Fill(slot int, c *gate.Ciphertext) error {
	if rt.vals[slot] == nil {
		rt.vals[slot] = rt.pool.Get()
	}
	*rt.vals[slot] = *c
	return nil
}
