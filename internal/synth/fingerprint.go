package synth

import (
	"hash/maphash"
	"slices"
	"sync"

	"pytfhe/internal/circuit"
)

// fixedPointCap bounds how many fingerprints fixedPoints remembers. A
// compile touches two netlists at most (the frontend's and core.Compile's
// view of it), so a few dozen cover every program a process compiles at
// once.
const fixedPointCap = 64

// fixedPoints remembers, by content fingerprint, the netlists Optimize has
// returned as proven fixed points of the standard pipeline, so a netlist
// synthesized twice — by a frontend and again by core.Compile — costs one
// fingerprint the second time instead of a round of four passes. It is
// process-wide because the two calls sit in different packages that share
// nothing but the netlist. A hit returns the input as it is, which is what
// a round over a fixed point returns; a false hit (two netlists sharing a
// 64-bit keyed fingerprint) can only leave a netlist unoptimized, never
// change what it computes.
var fixedPoints = newFingerprintSet()

// fingerprintSet is a bounded set of netlist fingerprints, the oldest
// evicted first, safe for concurrent use.
type fingerprintSet struct {
	k0, k1 uint64 // fingerprint keys, odd

	mu   sync.Mutex
	ring [fixedPointCap]uint64
	n    int // fingerprints ever added; ring holds the last min(n, fixedPointCap)
}

func newFingerprintSet() *fingerprintSet {
	seed := maphash.MakeSeed()
	return &fingerprintSet{
		k0: maphash.Bytes(seed, []byte{0}) | 1,
		k1: maphash.Bytes(seed, []byte{1}) | 1,
	}
}

// fingerprint hashes nl's input count, gates and outputs under the set's
// keys: each gate's operands and then its table and arity are folded
// into a running hash, then each output, then the lengths.
func (s *fingerprintSet) fingerprint(nl *circuit.Netlist) uint64 {
	h := s.k1 ^ uint64(nl.NumInputs)
	for i := range nl.Gates {
		g := &nl.Gates[i]
		h = circuit.Mix(uint64(g.A)^s.k0, uint64(g.B)^h)
		h = circuit.Mix(uint64(g.C)^s.k1, (uint64(g.TT)|uint64(g.Arity)<<8)^h)
	}
	for _, o := range nl.Outputs {
		h = circuit.Mix(uint64(o)^s.k0, h^s.k1)
	}
	return circuit.Mix(h^s.k0, uint64(len(nl.Gates))<<32^uint64(len(nl.Outputs))^s.k1)
}

// has reports whether fp is in the set.
func (s *fingerprintSet) has(fp uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Contains(s.ring[:min(s.n, fixedPointCap)], fp)
}

// add puts fp in the set, evicting the oldest fingerprint when it is full.
func (s *fingerprintSet) add(fp uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slices.Contains(s.ring[:min(s.n, fixedPointCap)], fp) {
		return
	}
	s.ring[s.n%fixedPointCap] = fp
	s.n++
}
