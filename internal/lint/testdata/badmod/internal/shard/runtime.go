// Package shard mirrors the shard runtime, whose remote-input slots the
// cluster worker's serve loop owns. It is an executor layer, so touching
// the table here is clean.
package shard

import "badmod/internal/tfhe/gate"

// Runtime mirrors shard.Runtime.
type Runtime struct{ vals []*gate.Ciphertext }

// SetRemote installs a router-delivered ciphertext into a remote slot.
func (rt *Runtime) SetRemote(slot int32, c *gate.Ciphertext) error {
	rt.vals[slot] = c
	return nil
}

// RunLevel executes the shard's instructions for one plan level.
func (rt *Runtime) RunLevel(engines []*gate.Engine, level int) ([]*gate.Ciphertext, error) {
	return rt.vals[:level], nil
}
