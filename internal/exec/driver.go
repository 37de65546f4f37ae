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

// applyGate evaluates one netlist gate on eng now, resolving its operands
// in the value table (c is nil below arity 3).
func applyGate(eng *gate.Engine, st *State, g *circuit.Gate, out *lwe.Sample) error {
	var c *lwe.Sample
	if g.Arity >= 3 {
		c = st.Values[g.C]
	}
	return Eval(eng, gate.Op{Kind: g.Kind, TT: g.TT, Arity: g.Arity}, out, st.Values[g.A], st.Values[g.B], c)
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
