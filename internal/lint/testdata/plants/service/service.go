// Package service is outside the executor layers, so its four run-state
// touches are reported (unsynced-exec-state). It is on no crypto path, so
// its math/rand import is clean.
package service

import (
	"math/rand"

	"plants/core"
	"plants/engine"
)

func Snapshot(st *core.State) int { return len(st.Values) + rand.Intn(2) }

func Recycle(a *core.Arena) { a.Put(a.Get()) }

func InstallInput(rt *core.Runtime, c *engine.Ciphertext) error { return rt.Fill(0, c) }
