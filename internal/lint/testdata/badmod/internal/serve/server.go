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

// Recycle drives the executor's arena.
func Recycle(a *exec.Arena) {
	a.Put(a.Get()) // findings: exec.Arena Put and Get
}

// InstallInput fills a plan runtime's slot.
func InstallInput(rt *plan.Runtime, c *gate.Ciphertext) error {
	return rt.Fill(0, c) // finding: plan.Runtime
}
