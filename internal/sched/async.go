package sched

import (
	"container/heap"
	"time"

	"pytfhe/internal/circuit"
)

// SimulateAsync models Ray's event-driven dispatch of Algorithm 1: instead
// of synchronizing at every wavefront, each gate is dispatched the moment
// its operands are ready, to the earliest-available worker (event-driven
// list scheduling), the way a task runtime like Ray drains the DAG. It
// models no executor in this tree — every executor here keeps the level
// barrier (Pool per wavefront, Shared per plan or shard level) — and
// bounds what removing that barrier could buy
// (BenchmarkAblationLevelBarrier). Dispatch overhead is charged to the
// task's service time.
func SimulateAsync(nl *circuit.Netlist, p Platform) Result {
	c := p.Cost
	w := p.Workers()
	if w < 1 {
		w = 1
	}
	res := Result{Platform: p, CriticalPath: nl.Depth(), Levels: len(nl.Levels())}

	var commPerGate time.Duration
	if p.Nodes > 1 && c.NetBandwidth > 0 {
		bytes := float64(3 * c.CiphertextBytes)
		commPerGate = time.Duration(bytes / c.NetBandwidth * c.RemoteFraction * float64(time.Second))
	}

	// Dependency bookkeeping: children of each node and the number of
	// gate (non-input) operands each gate still waits on.
	nGates := len(nl.Gates)
	children := make([][]int, nl.NumNodes()+1)
	pending := make([]int, nGates)
	for i, g := range nl.Gates {
		for _, in := range [2]circuit.NodeID{g.A, g.B} {
			if nl.GateIndex(in) >= 0 {
				pending[i]++
				children[in] = append(children[in], i)
			}
		}
	}

	ready := &taskHeap{}
	heap.Init(ready)
	for i := range nl.Gates {
		if pending[i] == 0 {
			heap.Push(ready, task{gate: i, ready: 0})
		}
	}

	avail := make(durationHeap, w)
	heap.Init(&avail)

	finish := make([]time.Duration, nl.NumNodes()+1)
	var makespan, serial, compute, comm, overhead time.Duration
	done := 0
	for ready.Len() > 0 {
		t := heap.Pop(ready).(task)
		g := nl.Gates[t.gate]
		cost := c.GateTime
		if !g.Kind.NeedsBootstrap() {
			cost = c.FreeGateTime
		} else {
			res.Bootstraps++
		}
		serial += cost

		start := t.ready
		if avail[0] > start {
			start = avail[0]
		}
		end := start + c.DispatchOverhead + cost + commPerGate
		compute += cost
		comm += commPerGate
		overhead += c.DispatchOverhead
		avail[0] = end
		heap.Fix(&avail, 0)

		id := nl.GateID(t.gate)
		finish[id] = end
		if end > makespan {
			makespan = end
		}
		done++
		for _, child := range children[id] {
			pending[child]--
			if pending[child] == 0 {
				cg := nl.Gates[child]
				r := finish[cg.A]
				if f := finish[cg.B]; f > r {
					r = f
				}
				heap.Push(ready, task{gate: child, ready: r})
			}
		}
	}
	_ = done // == nGates for any valid (acyclic, topologically ordered) netlist
	res.Makespan = makespan
	res.Serial = serial
	res.Ideal = serial / time.Duration(w)
	res.Compute = compute
	res.Comm = comm
	res.Overhead = overhead
	return res
}

type task struct {
	gate  int
	ready time.Duration
}

type taskHeap []task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].gate < h[j].gate
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

type durationHeap []time.Duration

func (h durationHeap) Len() int           { return len(h) }
func (h durationHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h durationHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *durationHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *durationHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
