// Package cluster mirrors the cluster worker: shard installs whose errors
// must not be dropped, and level steps that must run neither under a lock
// nor from a goroutine that captured the runtime.
package cluster

import (
	"errors"
	"net"
	"sync"

	"badmod/internal/shard"
	"badmod/internal/tfhe/gate"
)

// Shard mirrors a shard program shipped off a socket.
type Shard struct{ NumLocal int }

// Validate rejects a malformed shard.
func (sh *Shard) Validate() error {
	if sh.NumLocal < 0 {
		return errors.New("cluster: negative local slot count")
	}
	return nil
}

func newRuntime(sh *Shard) (*shard.Runtime, error) { return &shard.Runtime{}, sh.Validate() }

// Worker mirrors cluster.Worker with a lock around its shard table.
type Worker struct {
	mu     sync.Mutex
	shards map[string]*shard.Runtime
	conn   net.Conn
}

// install drops the validation error three ways.
func (w *Worker) install(hash string, sh *Shard) {
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

// step runs a level with the shard table locked, so every other request
// on the worker waits out the level's bootstraps.
func (w *Worker) step(engines []*gate.Engine, hash string, level int) ([]*gate.Ciphertext, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shards[hash].RunLevel(engines, level) // finding: locked-bootstrap
}

// fill installs a boundary ciphertext from a goroutine that captured rt.
func fill(rt *shard.Runtime, c *gate.Ciphertext, done chan<- error) {
	go func() {
		done <- rt.SetRemote(0, c) // finding: captured runtime
	}()
}
