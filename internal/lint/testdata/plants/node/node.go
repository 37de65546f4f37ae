// Package node is a cluster worker: its installs must not drop errors, its
// shard levels must not run under its lock, and its fills must not come
// from a goroutine that captured the runtime.
//
//pytfhe:errorcritical
//pytfhe:execlayer
package node

import (
	"net"
	"sync"

	"plants/core"
	"plants/engine"
)

type Shard struct{ Slots int }

func (sh *Shard) Validate() error { return nil }

func newRuntime(sh *Shard) (*core.Runtime, error) { return &core.Runtime{}, sh.Validate() }

type Worker struct {
	mu     sync.Mutex
	ex     *core.Shared
	shards map[string]*core.Runtime
	conn   net.Conn
}

// install drops the validation error three ways (discarded-error); the
// misspelt ignore above the first suppresses nothing (ignore-directive).
func (w *Worker) install(hash string, sh *Shard) {
	//lint:ignore discarded-errors misspelt, so the discard is still reported
	sh.Validate()
	_ = sh.Validate()
	rt, _ := newRuntime(sh)
	w.shards[hash] = rt
}

// drop's ignore suppresses its discard; evict's is stale, as the line it
// covers drops no error (ignore-directive).
func (w *Worker) drop() {
	//lint:ignore discarded-error the connection already failed; its close error carries nothing
	w.conn.Close()
}

func (w *Worker) evict(hash string) {
	//lint:ignore discarded-error stale: the line below drops no error
	delete(w.shards, hash)
}

// step and stepVar run a shard level with the shard table locked
// (locked-bootstrap, twice).
func (w *Worker) step(hash string, it *core.Interp, instrs []core.Instr) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ex.Run(w.shards[hash], it, instrs)
}

func (w *Worker) stepVar(hash string, it *core.Interp, instrs []core.Instr) error {
	w.mu.Lock()
	var err = w.ex.Run(w.shards[hash], it, instrs)
	w.mu.Unlock()
	return err
}

// fill fills from a goroutine that captured rt (unsynced-exec-state);
// fillOwned hands rt to its goroutine as a parameter and is clean.
func fill(rt *core.Runtime, c *engine.Ciphertext, done chan<- error) {
	go func() { done <- rt.Fill(0, c) }()
}

func fillOwned(rt *core.Runtime, c *engine.Ciphertext, done chan<- error) {
	go func(rt *core.Runtime) { done <- rt.Fill(0, c) }(rt)
}
