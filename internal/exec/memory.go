package exec

import (
	"sync"

	"pytfhe/internal/tfhe/lwe"
)

// Pool and Arena recycle ciphertexts. Get hands out a sample the caller
// owns until it is published into a value table, returned, or handed back
// with Put. internal/lint checks both contracts statically: its
// leaked-ciphertext analyzer reports a Get that some return path drops,
// and unsynced-exec-state a Pool that a goroutine captured instead of
// owning.

// Pool is the netlist drivers' recycler: a free list fed by State releases,
// so peak allocation follows the live frontier of the DAG rather than the
// whole program (a 2M-gate MNIST netlist would otherwise hold ~5 GB). Not
// safe for concurrent use: RunLevels touches it only between barriers,
// never from a worker goroutine.
type Pool struct {
	dim  int
	free []*lwe.Sample
}

// NewPool returns a free-list pool allocating ciphertexts of the given LWE
// dimension.
func NewPool(dim int) *Pool { return &Pool{dim: dim} }

// Get returns a recycled ciphertext, or a fresh one.
func (p *Pool) Get() *lwe.Sample {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return lwe.NewSample(p.dim)
}

// Put takes a ciphertext back (nil is ignored).
func (p *Pool) Put(s *lwe.Sample) {
	if s != nil {
		p.free = append(p.free, s)
	}
}

// Arena is the plan replay recycler: slots are bound once per plan by the
// compile-time liveness analysis instead of refcounted at runtime, so it
// additionally accounts the live population — HighWater is the figure the
// Planned backend and pytfhed report as arena occupancy. Safe for
// concurrent use: replay workers share one arena, and the lock is
// amortized against multi-millisecond bootstraps.
type Arena struct {
	mu        sync.Mutex
	dim       int
	free      []*lwe.Sample
	live      int
	highWater int
}

// NewArena returns a liveness arena allocating ciphertexts of the given
// LWE dimension.
func NewArena(dim int) *Arena { return &Arena{dim: dim} }

// Get returns a recycled ciphertext, or a fresh one, and counts it live.
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
