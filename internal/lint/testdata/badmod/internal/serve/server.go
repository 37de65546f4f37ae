// Package serve mirrors the service layer, which must never reach into
// executor run state.
package serve

import (
	"badmod/internal/exec"
	"badmod/internal/shard"
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

// InstallRemote writes a shard runtime's remote-input slot.
func InstallRemote(rt *shard.Runtime, c *gate.Ciphertext) error {
	return rt.SetRemote(0, c) // finding: shard.Runtime
}
