// Package shard mirrors the shard program a cluster worker receives off a
// socket. It holds no run state: the worker runs a shard over a
// plan.Runtime on the slice scheduler.
package shard

import "errors"

// Shard mirrors a shard program shipped off a socket.
type Shard struct{ Slots int }

// Validate rejects a malformed shard.
func (sh *Shard) Validate() error {
	if sh.Slots < 0 {
		return errors.New("shard: negative slot count")
	}
	return nil
}
