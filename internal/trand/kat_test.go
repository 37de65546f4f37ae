package trand

import (
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// aesCTR computes n bytes of AES-256-CTR keystream for seed by hand: the
// key is SHA-256(seed), and block i is the encryption of i as a 128-bit
// big-endian counter.
func aesCTR(t *testing.T, seed []byte, n int) []byte {
	key := sha256.Sum256(seed)
	c, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 0, n)
	var ctr, blk [aes.BlockSize]byte
	for i := uint64(0); len(out) < n; i++ {
		binary.BigEndian.PutUint64(ctr[8:], i)
		c.Encrypt(blk[:], ctr[:])
		out = append(out, blk[:]...)
	}
	return out[:n]
}

// TestKnownAnswer: the first 4 KB of a seeded Source are the AES-256-CTR
// keystream under SHA-256 of the seed, whether read as 32-bit words or as
// 64-bit words that straddle a buffer refill.
func TestKnownAnswer(t *testing.T) {
	seed := []byte("kat")
	want := aesCTR(t, seed, 4096)

	s := NewSeeded(seed)
	for i := 0; i < len(want); i += 4 {
		if got := s.Uint32(); got != binary.LittleEndian.Uint32(want[i:]) {
			t.Fatalf("Uint32 at byte %d = %08x, AES-CTR gives %08x", i, got, binary.LittleEndian.Uint32(want[i:]))
		}
	}

	// One word first, so every Uint64 is four bytes off the buffer's
	// boundaries and one of them reads across a refill.
	s = NewSeeded(seed)
	if got := s.Uint32(); got != binary.LittleEndian.Uint32(want) {
		t.Fatalf("Uint32 at byte 0 = %08x", got)
	}
	for i := 4; i+8 <= len(want); i += 8 {
		if got := s.Uint64(); got != binary.LittleEndian.Uint64(want[i:]) {
			t.Fatalf("Uint64 at byte %d = %016x, AES-CTR gives %016x", i, got, binary.LittleEndian.Uint64(want[i:]))
		}
	}
}

// TestFillMatchesUint32: Fill returns exactly the words repeated Uint32
// calls would, at lengths around the buffer's 256 words and from both an
// aligned and an unaligned start, and leaves the stream where they would.
func TestFillMatchesUint32(t *testing.T) {
	for _, skip := range []int{0, 3} {
		for _, n := range []int{0, 1, 255, 256, 257, 10000} {
			t.Run(fmt.Sprintf("skip%d/n%d", skip, n), func(t *testing.T) {
				a, b := NewSeeded([]byte("fill")), NewSeeded([]byte("fill"))
				for i := 0; i < skip; i++ {
					a.Uint32()
					b.Uint32()
				}
				got := make([]uint32, n)
				a.Fill(got)
				for i := range got {
					if w := b.Uint32(); got[i] != w {
						t.Fatalf("word %d: Fill %08x, Uint32 %08x", i, got[i], w)
					}
				}
				if a.Uint64() != b.Uint64() {
					t.Fatal("streams differ after Fill")
				}
			})
		}
	}
}

// BenchmarkKernelSource times one 4-byte word drawn per call, the same
// words drawn by Fill in 1024-word runs (ns/op is per word in both), and
// one standard normal variate.
func BenchmarkKernelSource(b *testing.B) {
	b.Run("uint32", func(b *testing.B) {
		s := NewSeeded([]byte("bench"))
		var acc uint32
		for i := 0; i < b.N; i++ {
			acc += s.Uint32()
		}
		sink = float64(acc)
	})
	b.Run("fill", func(b *testing.B) {
		s := NewSeeded([]byte("bench"))
		buf := make([]uint32, 1024)
		for i := 0; i < b.N; i += len(buf) {
			s.Fill(buf[:min(len(buf), b.N-i)])
		}
	})
	b.Run("normal", func(b *testing.B) {
		s := NewSeeded([]byte("bench"))
		var acc float64
		for i := 0; i < b.N; i++ {
			acc += s.Normal()
		}
		sink = acc
	})
}

var sink float64
