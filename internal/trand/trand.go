// Package trand provides the random samplers used by the TFHE scheme:
// uniform bits for secret keys, uniform torus elements for ciphertext masks,
// and Gaussian-distributed torus noise.
//
// The generator is AES-256 in counter mode: the key is SHA-256 of the seed,
// the counter starts at zero, and every method reads the next bytes of the
// keystream. Seeded from crypto/rand it is suitable for the semi-honest
// threat model of the paper; seeded from an explicit value it makes every
// test and benchmark reproducible. Only the Go standard library is used.
//
//pytfhe:cryptoroot
package trand

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// bufSize is the number of keystream bytes generated at a time.
const bufSize = 1024

// Source is a deterministic cryptographically-seeded random generator.
// It is not safe for concurrent use; give each goroutine its own Source
// (see Fork).
type Source struct {
	key    [32]byte
	forks  uint64 // children derived so far
	stream cipher.Stream
	buf    [bufSize]byte
	off    int

	// cached spare Gaussian variate from the Box-Muller transform
	haveSpare bool
	spare     float64
}

// New returns a Source seeded from the operating system's entropy pool.
func New() *Source {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it does,
		// there is no meaningful recovery for a cryptographic library.
		panic("trand: crypto/rand failed: " + err.Error())
	}
	return NewSeeded(seed[:])
}

// NewSeeded returns a deterministic Source derived from seed. Two Sources
// constructed from the same seed produce identical streams.
func NewSeeded(seed []byte) *Source {
	return fromKey(sha256.Sum256(seed))
}

func fromKey(key [32]byte) *Source {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("trand: " + err.Error()) // unreachable: the key is 32 bytes
	}
	s := &Source{key: key, off: bufSize} // refill on first use
	s.stream = cipher.NewCTR(block, make([]byte, aes.BlockSize))
	return s
}

// Fork derives an independent child Source, keyed by SHA-256 of the
// parent's key and the number of children derived before it. The child's
// stream is deterministic given the parent's state, and advancing the
// child does not affect the parent.
func (s *Source) Fork() *Source {
	var material [40]byte
	copy(material[:32], s.key[:])
	binary.LittleEndian.PutUint64(material[32:], s.forks)
	s.forks++
	return fromKey(sha256.Sum256(material[:]))
}

// refill replaces the buffer with the next bufSize keystream bytes: the
// keystream XORed onto zeros.
func (s *Source) refill() {
	clear(s.buf[:])
	s.stream.XORKeyStream(s.buf[:], s.buf[:])
	s.off = 0
}

// Uint32 returns a uniformly random 32-bit value: the next four keystream
// bytes, little-endian.
func (s *Source) Uint32() uint32 {
	if s.off+4 > bufSize {
		s.refill()
	}
	v := binary.LittleEndian.Uint32(s.buf[s.off:])
	s.off += 4
	return v
}

// Fill sets dst to the next len(dst) values Uint32 would return, in order.
func (s *Source) Fill(dst []uint32) {
	for len(dst) > 0 {
		if s.off+4 > bufSize {
			s.refill()
		}
		n := min(len(dst), (bufSize-s.off)/4)
		words := dst[:n]
		src := s.buf[s.off : s.off+4*n]
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(src)
			src = src[4:]
		}
		s.off += 4 * n
		dst = dst[n:]
	}
}

// Uint64 returns a uniformly random 64-bit value: the next eight keystream
// bytes, little-endian.
func (s *Source) Uint64() uint64 {
	if s.off+8 > bufSize {
		return uint64(s.Uint32()) | uint64(s.Uint32())<<32
	}
	v := binary.LittleEndian.Uint64(s.buf[s.off:])
	s.off += 8
	return v
}

// Bit returns a uniformly random bit as an int32 in {0, 1}.
func (s *Source) Bit() int32 {
	return int32(s.Uint32() & 1)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Torus32 returns a uniformly random torus element (a uniform uint32).
func (s *Source) Torus32() uint32 {
	return s.Uint32()
}

// Normal returns a standard normal variate via the Box-Muller transform.
func (s *Source) Normal() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	var u float64
	for u == 0 {
		u = s.Float64()
	}
	v := s.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	s.spare = r * sin
	s.haveSpare = true
	return r * cos
}

// GaussianTorus32 returns mu plus Gaussian noise of standard deviation
// sigma, where sigma is expressed as a real number in [0, 1) interpreted on
// the torus. The real-valued noise is rounded to the nearest representable
// torus element.
func (s *Source) GaussianTorus32(mu uint32, sigma float64) uint32 {
	noise := s.Normal() * sigma
	return mu + DoubleToTorus32(noise)
}

// DoubleToTorus32 maps a real number to its nearest torus representative:
// the fractional part of d scaled by 2^32. The mapping wraps modulo 1.
func DoubleToTorus32(d float64) uint32 {
	frac := d - math.Floor(d) // in [0,1)
	return uint32(uint64(math.Round(frac * (1 << 32))))
}

// Torus32ToDouble maps a torus element to its real representative in
// [-1/2, 1/2).
func Torus32ToDouble(t uint32) float64 {
	return float64(int32(t)) / (1 << 32)
}
