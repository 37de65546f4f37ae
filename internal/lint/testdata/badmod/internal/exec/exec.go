// Package exec mirrors the real execution core — the value table, the
// single-owner Pool, the locked Arena and the one evaluator — with drivers
// shaped like RunSequential and RunLevels.
package exec

import (
	"sync"

	"badmod/internal/tfhe/gate"
)

// State mirrors exec.State's value table.
type State struct{ Values []*gate.Ciphertext }

// Pool mirrors exec.Pool: a free list with one owner.
type Pool struct{ free []*gate.Ciphertext }

// Get pops a recycled ciphertext or allocates one.
func (p *Pool) Get() *gate.Ciphertext {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return &gate.Ciphertext{}
}

// Put takes a ciphertext back.
func (p *Pool) Put(c *gate.Ciphertext) { p.free = append(p.free, c) }

// Arena mirrors exec.Arena: a free list behind its own lock.
type Arena struct {
	mu   sync.Mutex
	pool Pool
}

// Get pops a recycled ciphertext or allocates one.
func (a *Arena) Get() *gate.Ciphertext {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pool.Get()
}

// Put takes a ciphertext back.
func (a *Arena) Put(c *gate.Ciphertext) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pool.Put(c)
}

// Batcher mirrors exec.Batcher, the one evaluator.
type Batcher struct{ eng *gate.Engine }

// Do evaluates op (the fixture never batches).
func (bt *Batcher) Do(op gate.Op, out, a, b *gate.Ciphertext) (joined bool, err error) {
	return false, bt.eng.Binary(op.Kind, out, a, b)
}

// RunSequential leaks: its error path returns without the mem.Put(out)
// the real driver makes there.
func RunSequential(bt *Batcher, st *State, ops []gate.Op) error {
	mem := &Pool{}
	for i, op := range ops {
		out := mem.Get() // finding: leaked on the error return
		if _, err := bt.Do(op, out, st.Values[0], st.Values[1]); err != nil {
			return err
		}
		st.Values[i] = out
	}
	return nil
}

// RunLevels takes each gate's output from the pool inside its worker
// goroutine instead of before the level starts: every worker calls Get and
// Put on the one pool it captured.
func RunLevels(engines []*gate.Engine, st *State, ops []gate.Op) {
	mem := &Pool{}
	var wg sync.WaitGroup
	for w, eng := range engines {
		wg.Add(1)
		go func(bt *Batcher) {
			defer wg.Done()
			out := mem.Get() // finding: captured pool
			if _, err := bt.Do(ops[w], out, st.Values[0], st.Values[1]); err != nil {
				mem.Put(out) // finding: captured pool
				return
			}
			st.Values[w] = out
		}(&Batcher{eng: eng})
	}
	wg.Wait()
}

// RunLevelsBarriered is the real shape and clean: output slots are claimed
// from the pool before the level starts and released after its barrier,
// so the worker goroutines never touch the pool.
func RunLevelsBarriered(engines []*gate.Engine, st *State, ops []gate.Op) {
	mem := &Pool{}
	for w := range engines {
		st.Values[w] = mem.Get()
	}
	var wg sync.WaitGroup
	for w, eng := range engines {
		wg.Add(1)
		go func(bt *Batcher) {
			defer wg.Done()
			if _, err := bt.Do(ops[w], st.Values[w], st.Values[0], st.Values[1]); err != nil {
				return
			}
		}(&Batcher{eng: eng})
	}
	wg.Wait()
	for w := range engines {
		mem.Put(st.Values[w])
	}
}
