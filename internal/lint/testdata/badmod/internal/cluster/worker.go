// Package cluster mirrors the cluster worker: shard installs whose errors
// must not be dropped, shard levels that must not run on the slice
// scheduler under a lock, and fills that must not come from a goroutine
// that captured the shard's runtime.
package cluster

import (
	"net"
	"sync"

	"badmod/internal/backend"
	"badmod/internal/plan"
	"badmod/internal/shard"
	"badmod/internal/tfhe/gate"
)

func newRuntime(sh *shard.Shard) (*plan.Runtime, error) { return &plan.Runtime{}, sh.Validate() }

// Worker mirrors cluster.Worker's serve state with a lock around its shard
// table.
type Worker struct {
	mu     sync.Mutex
	ex     *backend.Shared
	shards map[string]*plan.Runtime
	conn   net.Conn
}

// install drops the validation error three ways.
func (w *Worker) install(hash string, sh *shard.Shard) {
	sh.Validate()           // finding: bare call
	_ = sh.Validate()       // finding: blank assignment
	rt, _ := newRuntime(sh) // finding: blank error slot
	w.shards[hash] = rt
}

// drop evicts a peer whose connection already failed.
func (w *Worker) drop() {
	//lint:ignore discarded-error the connection already failed; its close error carries nothing
	w.conn.Close()
}

// step runs a shard level on the executor with the shard table locked, so
// every other request on the worker waits out the level's bootstraps.
func (w *Worker) step(hash string, it *plan.Interp, instrs []plan.Instr) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ex.Run(w.shards[hash], it, instrs) // finding: locked-bootstrap
}

// fill installs a boundary ciphertext from a goroutine that captured rt.
func fill(rt *plan.Runtime, c *gate.Ciphertext, done chan<- error) {
	go func() {
		done <- rt.Fill(0, c) // finding: captured runtime
	}()
}

// fillOwned hands the runtime to the goroutine as a parameter: clean.
func fillOwned(rt *plan.Runtime, c *gate.Ciphertext, done chan<- error) {
	go func(rt *plan.Runtime) {
		done <- rt.Fill(0, c)
	}(rt)
}
