// Package serve mirrors the service layer, which must never reach into
// executor run state.
package serve

import (
	"badmod/internal/exec"
	"badmod/internal/plan"
	"badmod/internal/tfhe/gate"
)

// Snapshot reads the executor's value table.
func Snapshot(st *exec.State) int {
	return len(st.Values) // finding: exec.State
}

// Recycle drives the executor's pool.
func Recycle(p *exec.Pool) {
	p.Put(p.Get()) // findings: exec.Pool Put and Get
}

// InstallInput writes a plan runtime's input slot.
func InstallInput(rt *plan.Runtime, c *gate.Ciphertext) error {
	return rt.SetInput(0, c) // finding: plan.Runtime
}
