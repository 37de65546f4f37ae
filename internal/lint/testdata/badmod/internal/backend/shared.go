// Package backend mirrors the slice scheduler and its one-tenant client,
// each with a lock held across plan execution.
package backend

import (
	"sync"

	"badmod/internal/plan"
)

// Shared mirrors backend.Shared.
type Shared struct {
	mu    sync.Mutex
	picks int
}

// Submit runs a plan on the worker set and waits for it.
func (s *Shared) Submit(rt *plan.Runtime, it *plan.Interp, instrs []plan.Instr) error {
	return s.worker(rt, it, instrs)
}

// worker evaluates a slice under s.mu, so every other worker waits out
// its bootstraps; the second slice runs after Unlock and is clean.
func (s *Shared) worker(rt *plan.Runtime, it *plan.Interp, instrs []plan.Instr) error {
	s.mu.Lock()
	s.picks++
	err := rt.Exec(it, instrs) // finding: locked-bootstrap
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return rt.Exec(it, instrs)
}

// Planned mirrors backend.Planned, whose mutex guards only its stats.
type Planned struct {
	sh   *Shared
	mu   sync.Mutex
	runs int
}

// Run holds p.mu across Submit, serializing every concurrent Run.
func (p *Planned) Run(rt *plan.Runtime, it *plan.Interp, instrs []plan.Instr) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs++
	return p.sh.Submit(rt, it, instrs) // finding: locked-bootstrap
}
