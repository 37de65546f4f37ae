// Package exec mirrors the real execution core — the value table, the
// locked Arena and the one evaluator — with drivers shaped like
// RunSequential and RunLevels.
package exec

import (
	"sync"

	"badmod/internal/tfhe/gate"
)

// State mirrors exec.State's value table.
type State struct{ Values []*gate.Ciphertext }

// Arena mirrors exec.Arena: a free list behind its own lock.
type Arena struct {
	mu   sync.Mutex
	free []*gate.Ciphertext
}

// Get pops a recycled ciphertext or allocates one.
func (a *Arena) Get() *gate.Ciphertext {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		c := a.free[n-1]
		a.free = a.free[:n-1]
		return c
	}
	return &gate.Ciphertext{}
}

// Put takes a ciphertext back.
func (a *Arena) Put(c *gate.Ciphertext) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = append(a.free, c)
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
	mem := &Arena{}
	for i, op := range ops {
		out := mem.Get() // finding: leaked on the error return
		if _, err := bt.Do(op, out, st.Values[0], st.Values[1]); err != nil {
			return err
		}
		st.Values[i] = out
	}
	return nil
}

// RunLevels is clean: each worker goroutine takes its output from the
// arena it captured and puts it back on error — the arena's lock makes
// that safe, and both paths release or publish the sample.
func RunLevels(engines []*gate.Engine, st *State, ops []gate.Op) {
	mem := &Arena{}
	var wg sync.WaitGroup
	for w, eng := range engines {
		wg.Add(1)
		go func(bt *Batcher) {
			defer wg.Done()
			out := mem.Get()
			if _, err := bt.Do(ops[w], out, st.Values[0], st.Values[1]); err != nil {
				mem.Put(out)
				return
			}
			st.Values[w] = out
		}(&Batcher{eng: eng})
	}
	wg.Wait()
}
