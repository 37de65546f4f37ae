// Package core holds run state — a value table, a recycler and a plan
// runtime — and the drivers and scheduler that run over it.
//
//pytfhe:execlayer
package core

import (
	"errors"
	"sync"

	"plants/engine"
)

//pytfhe:runstate
type State struct{ Values []*engine.Ciphertext }

//pytfhe:runstate
type Arena struct{ free []*engine.Ciphertext }

//pytfhe:acquire
func (a *Arena) Get() *engine.Ciphertext { return &engine.Ciphertext{} }

//pytfhe:release
func (a *Arena) Put(c *engine.Ciphertext) { a.free = append(a.free, c) }

// RunSequential leaks out on its error return (leaked-ciphertext).
func RunSequential(eng *engine.Engine, st *State, mem *Arena) error {
	for i := range st.Values {
		out := mem.Get()
		if err := eng.Binary(0, out, st.Values[0], st.Values[1]); err != nil {
			return err
		}
		st.Values[i] = out
	}
	return nil
}

// RunVar leaks the same way from a var declaration (leaked-ciphertext).
func RunVar(eng *engine.Engine, st *State, mem *Arena) error {
	var out = mem.Get()
	if err := eng.Binary(0, out, st.Values[0], st.Values[1]); err != nil {
		return err
	}
	st.Values[0] = out
	return nil
}

// RunLevels is clean: each goroutine puts its output back on error or
// publishes it, and the arena it captured is not single-writer.
func RunLevels(engines []*engine.Engine, st *State, mem *Arena) {
	var wg sync.WaitGroup
	for w, eng := range engines {
		wg.Add(1)
		go func(w int, eng *engine.Engine) {
			defer wg.Done()
			out := mem.Get()
			if err := eng.Binary(0, out, st.Values[0], st.Values[1]); err != nil {
				mem.Put(out)
				return
			}
			st.Values[w] = out
		}(w, eng)
	}
	wg.Wait()
}

type Instr struct{ A, B, Out int }

type Interp struct{ Eng *engine.Engine }

// Run takes out before it checks the operands, so that error return leaks
// it (leaked-ciphertext).
//
//pytfhe:bootstraps
func (it *Interp) Run(instrs []Instr, vals []*engine.Ciphertext, mem *Arena) error {
	for _, ins := range instrs {
		out := mem.Get()
		a, b := vals[ins.A], vals[ins.B]
		if a == nil || b == nil {
			return errors.New("instruction reads an unwritten slot")
		}
		vals[ins.Out] = out
		if err := it.Eng.Binary(0, out, a, b); err != nil {
			return err
		}
	}
	return nil
}

//pytfhe:runstate
type Runtime struct {
	mem  *Arena
	vals []*engine.Ciphertext
}

//pytfhe:bootstraps
func (rt *Runtime) Exec(it *Interp, instrs []Instr) error { return it.Run(instrs, rt.vals, rt.mem) }

// Fill publishes the slot it takes from the recycler: clean.
//
//pytfhe:singlewriter
func (rt *Runtime) Fill(slot int, c *engine.Ciphertext) error {
	if rt.vals[slot] == nil {
		rt.vals[slot] = rt.mem.Get()
	}
	*rt.vals[slot] = *c
	return nil
}

type Shared struct{ mu sync.Mutex }

//pytfhe:bootstraps
func (s *Shared) Submit(rt *Runtime, it *Interp, ins []Instr) error { return s.worker(rt, it, ins) }

//pytfhe:bootstraps
func (s *Shared) Run(rt *Runtime, it *Interp, ins []Instr) error { return s.worker(rt, it, ins) }

// worker evaluates a slice under s.mu (locked-bootstrap); the slice after
// Unlock is clean.
func (s *Shared) worker(rt *Runtime, it *Interp, instrs []Instr) error {
	s.mu.Lock()
	err := rt.Exec(it, instrs)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return rt.Exec(it, instrs)
}

type Planned struct {
	sh *Shared
	mu sync.Mutex
}

// Run holds p.mu across Submit (locked-bootstrap).
func (p *Planned) Run(rt *Runtime, it *Interp, instrs []Instr) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sh.Submit(rt, it, instrs)
}
