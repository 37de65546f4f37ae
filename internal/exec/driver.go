package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// gateOp describes a netlist gate to the evaluator.
func gateOp(g *circuit.Gate) gate.Op { return gate.Op{Kind: g.Kind, TT: g.TT, Arity: g.Arity} }

// operands resolves g's operand ciphertexts in the value table (c is nil
// below arity 3).
func (s *State) operands(g *circuit.Gate) (a, b, c *lwe.Sample) {
	if g.Arity >= 3 {
		c = s.Values[g.C]
	}
	return s.Values[g.A], s.Values[g.B], c
}

// applyGate evaluates one netlist gate on eng now.
func applyGate(eng *gate.Engine, st *State, g *circuit.Gate, out *lwe.Sample) error {
	a, b, c := st.operands(g)
	return Eval(eng, gateOp(g), out, a, b, c)
}

// releaseOperands drops one fan-out reference per operand slot of g,
// recycling drained ciphertexts through mem.
func releaseOperands(st *State, g *circuit.Gate, mem *Pool) {
	for k := 0; k < g.NumOperands(); k++ {
		st.Release(g.Operand(k), mem)
	}
}

// countGates pre-tallies the bootstrap and LUT totals of a netlist into
// stats — every driver reports the same static counts.
func countGates(nl *circuit.Netlist, stats *Stats) {
	for i := range nl.Gates {
		g := &nl.Gates[i]
		if g.NeedsBootstrap() {
			stats.Bootstraps++
		}
		if g.IsLUT() {
			stats.LUTs++
		}
	}
}

// RunSequential is the single-core driver: gates evaluate in netlist
// order on one engine, recycling operands through a refcounted Pool the
// moment their fan-out drains. This is the Single backend's policy, and
// the reference every other executor is compared against.
func RunSequential(eng *gate.Engine, nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, Stats, error) {
	dim := eng.Params().LWEDimension
	mem := NewPool(dim)
	st, err := NewState(nl, inputs, dim)
	if err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	stats := Stats{Gates: len(nl.Gates)}
	countGates(nl, &stats)
	for i := range nl.Gates {
		g := &nl.Gates[i]
		id := nl.GateID(i)
		out := mem.Get()
		if err := applyGate(eng, st, g, out); err != nil {
			mem.Put(out)
			return nil, Stats{}, fmt.Errorf("exec: gate %d: %w", id, err)
		}
		st.Values[id] = out
		releaseOperands(st, g, mem)
	}
	outs, err := st.Collect(dim)
	if err != nil {
		return nil, Stats{}, err
	}
	stats.Finish(start)
	return outs, stats, nil
}

// RunLevels is the wavefront driver implementing Algorithm 1 of the
// paper: a BFS over the gate DAG that submits every ready gate of a
// level to the workers and barriers before the next level. This is the
// Pool backend's policy. The ciphertext pool is touched only between
// barriers (output slots are claimed before a level starts, operands
// released after it completes), so one non-concurrent Pool serves all
// workers and no worker can free a ciphertext another is still reading.
func RunLevels(ws *Workers, nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, Stats, error) {
	dim := ws.Dim()
	mem := NewPool(dim)
	st, err := NewState(nl, inputs, dim)
	if err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	levels := nl.Levels()
	stats := Stats{Gates: len(nl.Gates), Levels: len(levels), Workers: ws.N()}
	countGates(nl, &stats)

	var firstErr error
	var errMu sync.Mutex
	for _, level := range levels {
		for _, gi := range level {
			st.Values[nl.GateID(gi)] = mem.Get()
		}
		// Workers pull the next gate via an atomic counter rather than
		// pre-sliced chunks: with static chunking one slow chunk (a run of
		// bootstrapped gates landing in the same slice) stalls the whole
		// level barrier while the other workers sit idle.
		var next int64
		var wg sync.WaitGroup
		nw := ws.N()
		if nw > len(level) {
			nw = len(level)
		}
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(eng *gate.Engine) {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= len(level) {
						return
					}
					gi := level[i]
					if err := applyGate(eng, st, &nl.Gates[gi], st.Values[nl.GateID(gi)]); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("exec: gate %d: %w", nl.GateID(gi), err)
						}
						errMu.Unlock()
						return
					}
				}
			}(ws.Engine(w))
		}
		wg.Wait()
		if firstErr != nil {
			return nil, Stats{}, firstErr
		}
		// Operand releases happen after the barrier so no worker frees a
		// ciphertext another worker is still reading.
		for _, gi := range level {
			releaseOperands(st, &nl.Gates[gi], mem)
		}
	}
	outs, err := st.Collect(dim)
	if err != nil {
		return nil, Stats{}, err
	}
	stats.Finish(start)
	return outs, stats, nil
}

// RunReady is the barrier-free, dependency-driven driver: every gate
// carries an atomic pending-operand counter, finished gates decrement
// their children's counters, and a counter hitting zero pushes the child
// onto a blocking ready Queue served by the persistent workers. The queue
// pops the gate with the longest remaining bootstrap chain first
// (CriticalDepth), so limited workers keep the DAG's critical path moving.
// This is the Async backend's policy and what internal/sched's
// SimulateAsync models. Each worker owns a private Pool, so recycling is
// lock-free on the hot path; peak memory still tracks the live frontier
// of the DAG.
//
// With batch > 1 a worker that pops a bootstrapped gate tops its Batcher
// up from the queue without ever blocking — an empty queue flushes the
// batch rather than stalling it — and the group shares one kernel
// dispatch. The drain takes gates in exactly the order single-gate workers
// would have. Free gates popped during a drain evaluate at once: their
// children may become ready in time to join the very batch being
// assembled.
func RunReady(ws *Workers, nl *circuit.Netlist, inputs []*lwe.Sample, batch int) ([]*lwe.Sample, Stats, error) {
	dim := ws.Dim()
	st, err := NewState(nl, inputs, dim)
	if err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	batch = max(batch, 1)
	nGates := len(nl.Gates)
	stats := Stats{Gates: nGates, Workers: ws.N(), BatchSize: batch}
	countGates(nl, &stats)

	// The ready queue holds every gate index at most once: a max-heap on
	// each gate's remaining critical-path depth.
	deps := NewDeps(nl)
	prio := CriticalDepth(nl, deps.Children)
	ready := NewQueue(nGates, func(a, b int32) bool { return prio[a] > prio[b] })
	readyAt := make([]int64, nGates) // ns timestamp of enqueue, for QueueWait
	now := time.Now().UnixNano()
	for _, gi := range deps.Ready() {
		readyAt[gi] = now
		ready.Push(gi)
	}
	if nGates == 0 {
		ready.Finish()
	}

	var (
		done        int32 // gates fully processed; the last one finishes ready
		queueWaitNs int64
		runErr      error
		errOnce     sync.Once

		// Batch occupancy (atomics; only touched when batch > 1).
		nBatches     int64
		batchedBoots int64
		fullFlushes  int64
		drainFlushes int64
	)
	fail := func(gi int32, err error) {
		errOnce.Do(func() {
			runErr = fmt.Errorf("exec: gate %d: %w", nl.GateID(int(gi)), err)
			ready.Finish()
		})
	}

	// publish stores one finished gate's result, wakes its children, and
	// recycles drained operands. The atomic decrement plus the queue's
	// mutex order the write to Values[id] before any child's read of it.
	// The last published gate finishes the queue: all gates evaluated means
	// every push has already happened, so finishing wakes idle workers.
	publish := func(gi int32, out *lwe.Sample, mem *Pool) {
		g := &nl.Gates[gi]
		id := nl.GateID(int(gi))
		st.Values[id] = out
		for _, child := range deps.Children[id] {
			if atomic.AddInt32(&deps.Pending[child], -1) == 0 {
				readyAt[child] = time.Now().UnixNano()
				ready.Push(child)
			}
		}
		releaseOperands(st, g, mem)
		if atomic.AddInt32(&done, 1) == int32(nGates) {
			ready.Finish()
		}
	}

	ws.ResetBusy()
	var wg sync.WaitGroup
	for w := 0; w < min(ws.N(), nGates); w++ {
		wg.Add(1)
		go func(eng *gate.Engine) {
			defer wg.Done()
			mem := NewPool(dim)
			bt := NewBatcher(eng, batch)
			type heldGate struct {
				gi  int32
				out *lwe.Sample
			}
			var held []heldGate // the gates in bt's pending batch
			var busy time.Duration
			defer func() { ws.AddBusy(busy) }()
			// settle publishes the batch bt has just dispatched.
			settle := func(flushes *int64) {
				atomic.AddInt64(&nBatches, 1)
				atomic.AddInt64(&batchedBoots, int64(len(held)))
				atomic.AddInt64(flushes, 1)
				for _, h := range held {
					publish(h.gi, h.out, mem)
				}
				held = held[:0]
			}
			for {
				gi, ok := ready.Pop()
				if !ok {
					return
				}
				// One round: the popped gate and, while it leaves a partial
				// batch pending, whatever the queue holds right now.
				popped := time.Now()
				for at := popped; ok; at = time.Now() {
					atomic.AddInt64(&queueWaitNs, at.UnixNano()-readyAt[gi])
					g := &nl.Gates[gi]
					out := mem.Get()
					a, b, c := st.operands(g)
					joined, err := bt.Do(gateOp(g), out, a, b, c)
					if err != nil {
						mem.Put(out)
						fail(gi, err)
						return
					}
					if joined {
						held = append(held, heldGate{gi, out})
					} else {
						publish(gi, out, mem)
					}
					if bt.Pending() == 0 {
						if joined {
							settle(&fullFlushes)
						}
						break
					}
					gi, ok = ready.TryPop()
				}
				if bt.Pending() > 0 {
					if err := bt.Flush(); err != nil {
						fail(held[0].gi, err)
						return
					}
					settle(&drainFlushes)
				}
				busy += time.Since(popped)
			}
		}(ws.Engine(w))
	}
	wg.Wait()
	if runErr != nil {
		return nil, Stats{}, runErr
	}

	outs, err := st.Collect(dim)
	if err != nil {
		return nil, Stats{}, err
	}
	stats.QueueWait = time.Duration(queueWaitNs)
	stats.WorkerBusy = ws.Busy()
	stats.Batches = int(nBatches)
	stats.BatchedBootstraps = int(batchedBoots)
	stats.BatchFullFlushes = int(fullFlushes)
	stats.BatchDrainFlushes = int(drainFlushes)
	stats.Finish(start)
	return outs, stats, nil
}
