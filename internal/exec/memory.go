package exec

import (
	"sync"

	"pytfhe/internal/tfhe/lwe"
)

// Arena is the execution core's one ciphertext recycler: a free list
// behind a lock, which also accounts the live population. The netlist
// drivers feed it from State releases, so peak allocation follows the live
// frontier of the DAG rather than the whole program (a 2M-gate MNIST
// netlist would otherwise hold ~5 GB); plan runtimes bind its samples to
// slots once per plan by the compile-time liveness analysis, and HighWater
// is the figure the Planned backend and pytfhed report as arena occupancy.
// Safe for concurrent use: the lock is amortized against
// multi-millisecond bootstraps.
//
// Get hands out a sample the caller owns until it is published into a
// value table, returned, or handed back with Put. internal/lint's
// leaked-ciphertext analyzer reports a Get that some return path drops.
//
//pytfhe:runstate
type Arena struct {
	mu        sync.Mutex
	dim       int
	free      []*lwe.Sample
	live      int
	highWater int
}

// NewArena returns an arena allocating ciphertexts of the given
// LWE dimension.
func NewArena(dim int) *Arena { return &Arena{dim: dim} }

// Get returns a recycled ciphertext, or a fresh one, and counts it live.
//
//pytfhe:acquire
func (a *Arena) Get() *lwe.Sample {
	a.mu.Lock()
	a.live++
	if a.live > a.highWater {
		a.highWater = a.live
	}
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return s
	}
	a.mu.Unlock()
	return lwe.NewSample(a.dim)
}

// Put takes a ciphertext back (nil is ignored).
//
//pytfhe:release
func (a *Arena) Put(s *lwe.Sample) {
	if s == nil {
		return
	}
	a.mu.Lock()
	a.live--
	a.free = append(a.free, s)
	a.mu.Unlock()
}

// Live returns the number of arena ciphertexts currently held out.
func (a *Arena) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}

// HighWater returns the peak number of ciphertexts simultaneously held out
// of the arena over its lifetime.
func (a *Arena) HighWater() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.highWater
}
