package circuit

import (
	"encoding/binary"
	"fmt"
	"testing"

	"pytfhe/internal/logic"
)

// probeStats fills an index of 2n slots with n distinct keys, each hashed
// by hash, so its load is exactly one half, and returns the mean number of
// slots a successful lookup reads (one plus the distance from the key's
// home slot) and the longest run of occupied slots.
func probeStats(t *testing.T, x Index, n int, hash func(x *Index, i int) uint64) (float64, int) {
	t.Helper()
	x.Reserve(n)
	size := len(x.slots)
	for i := 0; i < n; i++ {
		x.Add(hash(&x, i), int32(i))
	}
	if len(x.slots) != size || 2*x.Len() != size {
		t.Fatalf("%d ids in %d slots (reserved %d), want load 1/2 without growth", x.Len(), len(x.slots), size)
	}
	mask := uint64(size - 1)
	total := 0
	for pos, s := range x.slots {
		if s != 0 {
			total += int((uint64(pos)-s>>32)&mask) + 1
		}
	}
	return float64(total) / float64(n), x.longestChain()
}

// TestIndexProbeLengths holds the keyed multiply-fold to what linear
// probing gets from a random hash at load 1/2 — 1.5 slots per successful
// lookup, and a longest chain of a few dozen slots — on the key shapes the
// compile path feeds it: sequential gate keys, keys differing in one high
// bit, and keys sharing their low 32 bits, each as a one-word key and
// inside 16- and 40-byte layouts.
func TestIndexProbeLengths(t *testing.T) {
	const n = 1 << 16
	shapes := []struct {
		name string
		key  func(i int) uint64
	}{
		{"sequential-gates", func(i int) uint64 {
			return uint64(newGateKey(logic.Kind(i%4+1), NodeID(i/4+1), NodeID(i/4+2)))
		}},
		{"one-high-bit", func(i int) uint64 { return uint64(i>>1) | uint64(i&1)<<63 }},
		{"shared-low-32", func(i int) uint64 { return uint64(i)<<32 | 0x5a5a5a5a }},
	}
	layouts := []struct {
		name string
		hash func(x *Index, k uint64) uint64
	}{
		{"word", func(x *Index, k uint64) uint64 { return x.HashWord(k) }},
		{"16-byte", func(x *Index, k uint64) uint64 {
			var b [16]byte
			binary.LittleEndian.PutUint64(b[8:], k)
			return x.HashBytes(b[:])
		}},
		{"40-byte", func(x *Index, k uint64) uint64 {
			var b [40]byte
			binary.LittleEndian.PutUint64(b[0:], 0x96)
			binary.LittleEndian.PutUint64(b[16:], k)
			binary.LittleEndian.PutUint64(b[32:], 3)
			return x.HashBytes(b[:])
		}},
	}
	for _, s := range shapes {
		for _, l := range layouts {
			for seed := 0; seed < 3; seed++ {
				mean, longest := probeStats(t, NewIndex(0), n, func(x *Index, i int) uint64 { return l.hash(x, s.key(i)) })
				if mean > 1.6 || longest > 128 {
					t.Errorf("%s/%s (index %d): %.3f slots per lookup, longest chain %d; want ≤ 1.6 and ≤ 128",
						s.name, l.name, seed, mean, longest)
				}
			}
		}
	}
}

// TestIndexHashBytesLengths hashes the all-zero keys of every length up to
// 40 bytes: the zero padding of a short tail must not make two of them one
// key.
func TestIndexHashBytesLengths(t *testing.T) {
	x := NewIndex(0)
	var zero [40]byte
	seen := map[uint64]int{}
	for n := 0; n <= len(zero); n++ {
		h := x.HashBytes(zero[:n])
		if m, dup := seen[h]; dup {
			t.Fatalf("zero keys of %d and %d bytes hash alike", m, n)
		}
		seen[h] = n
	}
}

// sinkHash keeps BenchmarkIndexHash's results live.
var sinkHash uint64

// BenchmarkIndexHash times one hash of each key layout the compile path
// uses: the builder's one-word gate key, its 16-byte LUT key and
// plan.Compile's 16-byte structure key, and plan.Compile's 40-byte
// function key.
func BenchmarkIndexHash(b *testing.B) {
	x := NewIndex(0)
	var buf [40]byte
	b.Run("word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkHash ^= x.HashWord(uint64(i))
		}
	})
	for _, n := range []int{16, 40} {
		b.Run(fmt.Sprintf("%d-byte", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(buf[8:], uint64(i))
				sinkHash ^= x.HashBytes(buf[:n])
			}
		})
	}
}
