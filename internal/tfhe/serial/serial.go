// Package serial provides compact binary encodings for the TFHE objects
// that cross trust or machine boundaries: LWE ciphertexts (the paper's
// 2.46 KB payload — exactly (n+1) little-endian 32-bit words), bit-packed
// secret keys, and batch ciphertext framing for program I/O. The large
// evaluation keys ship with encoding/gob (see internal/cluster), which
// handles their nested structure; the formats here are for the small,
// high-frequency payloads where framing overhead matters.
//
//pytfhe:cryptoroot
package serial

import (
	"encoding/binary"
	"fmt"
	"math"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
)

// SampleSize returns the wire size of one ciphertext for dimension n.
func SampleSize(n int) int { return (n + 1) * 4 }

// MarshalSample encodes s as (n+1) little-endian uint32 words: the mask
// then the body. Noise-variance metadata is deliberately dropped — it is
// diagnostic only and must not leak to the server in a different trust
// model.
func MarshalSample(s *lwe.Sample) []byte {
	buf := make([]byte, SampleSize(s.Dimension()))
	for i, a := range s.A {
		binary.LittleEndian.PutUint32(buf[4*i:], a)
	}
	binary.LittleEndian.PutUint32(buf[4*len(s.A):], s.B)
	return buf
}

// UnmarshalSample decodes a ciphertext of dimension n.
func UnmarshalSample(data []byte, n int) (*lwe.Sample, error) {
	if len(data) != SampleSize(n) {
		return nil, fmt.Errorf("serial: ciphertext is %d bytes, want %d for dimension %d", len(data), SampleSize(n), n)
	}
	s := lwe.NewSample(n)
	for i := range s.A {
		s.A[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	s.B = binary.LittleEndian.Uint32(data[4*n:])
	return s, nil
}

// MarshalSamples frames a batch of equal-dimension ciphertexts:
// [count uint32][dim uint32][samples...].
func MarshalSamples(cts []*lwe.Sample) ([]byte, error) {
	if len(cts) == 0 {
		return []byte{0, 0, 0, 0, 0, 0, 0, 0}, nil
	}
	dim := cts[0].Dimension()
	buf := make([]byte, 8, 8+len(cts)*SampleSize(dim))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(cts)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(dim))
	for i, ct := range cts {
		if ct.Dimension() != dim {
			return nil, fmt.Errorf("serial: ciphertext %d has dimension %d, batch is %d", i, ct.Dimension(), dim)
		}
		buf = append(buf, MarshalSample(ct)...)
	}
	return buf, nil
}

// UnmarshalSamples decodes a batch written by MarshalSamples.
func UnmarshalSamples(data []byte) ([]*lwe.Sample, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("serial: batch header truncated")
	}
	count := int(binary.LittleEndian.Uint32(data[0:]))
	dim := int(binary.LittleEndian.Uint32(data[4:]))
	if count == 0 {
		return nil, nil
	}
	if dim <= 0 || dim > 1<<20 {
		return nil, fmt.Errorf("serial: implausible ciphertext dimension %d", dim)
	}
	want := 8 + count*SampleSize(dim)
	if len(data) != want {
		return nil, fmt.Errorf("serial: batch is %d bytes, want %d", len(data), want)
	}
	cts := make([]*lwe.Sample, count)
	off := 8
	for i := range cts {
		ct, err := UnmarshalSample(data[off:off+SampleSize(dim)], dim)
		if err != nil {
			return nil, err
		}
		cts[i] = ct
		off += SampleSize(dim)
	}
	return cts, nil
}

// MarshalLWEKey bit-packs a binary LWE key:
// [n uint32][stdev float64][packed bits].
func MarshalLWEKey(k *lwe.Key) []byte {
	buf := make([]byte, 12+(k.N+7)/8)
	binary.LittleEndian.PutUint32(buf[0:], uint32(k.N))
	binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(k.Stdev))
	for i, b := range k.Bits {
		if b != 0 {
			buf[12+i/8] |= 1 << uint(i%8)
		}
	}
	return buf
}

// UnmarshalLWEKey decodes a key written by MarshalLWEKey.
func UnmarshalLWEKey(data []byte) (*lwe.Key, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("serial: key header truncated")
	}
	n := int(binary.LittleEndian.Uint32(data[0:]))
	if n <= 0 || n > 1<<20 {
		return nil, fmt.Errorf("serial: implausible key dimension %d", n)
	}
	if len(data) != 12+(n+7)/8 {
		return nil, fmt.Errorf("serial: key is %d bytes, want %d", len(data), 12+(n+7)/8)
	}
	k := &lwe.Key{N: n, Bits: make([]int32, n), Stdev: math.Float64frombits(binary.LittleEndian.Uint64(data[4:]))}
	for i := range k.Bits {
		if data[12+i/8]&(1<<uint(i%8)) != 0 {
			k.Bits[i] = 1
		}
	}
	return k, nil
}

// VerifyPaperSize checks that the default parameter set yields the
// ciphertext size the paper reports (2.46 KB); exposed for tests and the
// Fig. 7 harness.
func VerifyPaperSize(p *params.GateParams) (int, bool) {
	size := SampleSize(p.LWEDimension)
	return size, size == p.CiphertextBytes()
}
