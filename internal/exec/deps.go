package exec

import "pytfhe/internal/circuit"

// Deps is the dependency bookkeeping of the ready-driven schedulers,
// mirroring sched.SimulateAsync: for every node the gate indices that
// consume it, and for every gate a counter of unproduced gate operands.
// A unary gate reading node X twice counts X twice, matching
// circuit.FanOut. Pending counters are decremented atomically by the
// drivers as operands are produced.
type Deps struct {
	Children [][]int32
	Pending  []int32
}

// NewDeps builds the children lists and pending counters for nl.
func NewDeps(nl *circuit.Netlist) *Deps {
	d := &Deps{
		Children: make([][]int32, nl.NumNodes()+1),
		Pending:  make([]int32, len(nl.Gates)),
	}
	for i := range nl.Gates {
		g := &nl.Gates[i]
		for k := 0; k < g.NumOperands(); k++ {
			if in := g.Operand(k); nl.GateIndex(in) >= 0 {
				d.Pending[i]++
				d.Children[in] = append(d.Children[in], int32(i))
			}
		}
	}
	return d
}

// Ready returns the gate indices whose operands are all primary inputs or
// constants — the initial ready set. Callers must collect it before the
// first push: workers start decrementing pending counters the moment a
// task is visible.
func (d *Deps) Ready() []int32 {
	var ready []int32
	for i, p := range d.Pending {
		if p == 0 {
			ready = append(ready, int32(i))
		}
	}
	return ready
}

// CriticalDepth computes, for every gate, the number of bootstrapped gates
// on the longest dependency chain from that gate to any sink — the gate's
// remaining critical-path cost, the priority key of the ready queue.
// Bootstraps dominate runtime by orders of magnitude, so linear gates
// weigh zero. Gates are in topological order (Validate forbids forward
// references), so one reverse sweep over the children lists suffices.
func CriticalDepth(nl *circuit.Netlist, children [][]int32) []int64 {
	rem := make([]int64, len(nl.Gates))
	for i := len(nl.Gates) - 1; i >= 0; i-- {
		var longest int64
		for _, c := range children[nl.GateID(i)] {
			if rem[c] > longest {
				longest = rem[c]
			}
		}
		var w int64
		if nl.Gates[i].NeedsBootstrap() {
			w = 1
		}
		rem[i] = w + longest
	}
	return rem
}
