// Package lwe implements scalar Learning-With-Errors ciphertexts over the
// discretized torus: key generation, symmetric encryption and decryption,
// the homomorphic linear operations TFHE gates are built from, and the
// key-switching procedure that maps extracted (N·k)-dimensional samples
// back to the n-dimensional gate key.
package lwe

import (
	"fmt"

	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// Key is an LWE secret key: a vector of n uniformly random bits.
type Key struct {
	N     int
	Bits  []int32 // each in {0,1}
	Stdev float64 // fresh-encryption noise level associated with this key
}

// NewKey samples a fresh binary LWE key of dimension n.
func NewKey(n int, stdev float64, rng *trand.Source) *Key {
	k := &Key{N: n, Bits: make([]int32, n), Stdev: stdev}
	for i := range k.Bits {
		k.Bits[i] = rng.Bit()
	}
	return k
}

// Sample is an LWE ciphertext (a, b) with b = <a, s> + message + noise.
// Variance tracks the accumulated noise variance for diagnostics; it plays
// no role in correctness.
type Sample struct {
	A        []torus.Torus32
	B        torus.Torus32
	Variance float64
}

// NewSample returns a zero LWE sample of dimension n.
func NewSample(n int) *Sample {
	return &Sample{A: make([]torus.Torus32, n)}
}

// Dimension returns the mask length n of the sample.
func (s *Sample) Dimension() int { return len(s.A) }

// Copy copies src into s. Dimensions must match.
func (s *Sample) Copy(src *Sample) {
	copy(s.A, src.A)
	s.B = src.B
	s.Variance = src.Variance
}

// Clear resets s to the trivial encryption of zero.
func (s *Sample) Clear() {
	for i := range s.A {
		s.A[i] = 0
	}
	s.B = 0
	s.Variance = 0
}

// NoiselessTrivial sets s to the trivial (insecure, noiseless) sample
// (0, mu). Trivial samples encode public constants.
func (s *Sample) NoiselessTrivial(mu torus.Torus32) {
	for i := range s.A {
		s.A[i] = 0
	}
	s.B = mu
	s.Variance = 0
}

// Encrypt encrypts the torus message mu under key k with Gaussian noise of
// standard deviation alpha.
func Encrypt(dst *Sample, mu torus.Torus32, alpha float64, k *Key, rng *trand.Source) {
	dst.B = rng.GaussianTorus32(mu, alpha)
	for i := range dst.A {
		dst.A[i] = rng.Torus32()
		dst.B += dst.A[i] * uint32(k.Bits[i])
	}
	dst.Variance = alpha * alpha
}

// Phase computes the raw phase b - <a, s> of the sample under key k.
func Phase(s *Sample, k *Key) torus.Torus32 {
	phase := s.B
	for i, a := range s.A {
		phase -= a * uint32(k.Bits[i])
	}
	return phase
}

// Decrypt decrypts the sample to the nearest message in a space of msize
// equally spaced messages.
func Decrypt(s *Sample, k *Key, msize int32) int32 {
	return torus.ModSwitchFromTorus32(Phase(s, k), msize)
}

// AddTo computes s += src.
func (s *Sample) AddTo(src *Sample) {
	for i, a := range src.A {
		s.A[i] += a
	}
	s.B += src.B
	s.Variance += src.Variance
}

// SubFrom computes s -= src.
func (s *Sample) SubFrom(src *Sample) {
	torus.SubFrom(s.A, src.A)
	s.B -= src.B
	s.Variance += src.Variance
}

// AddMulTo computes s += p*src for a plain integer p.
func (s *Sample) AddMulTo(p int32, src *Sample) {
	pp := uint32(p)
	for i, a := range src.A {
		s.A[i] += pp * a
	}
	s.B += pp * src.B
	s.Variance += float64(p) * float64(p) * src.Variance
}

// Negate computes s = -s.
func (s *Sample) Negate() {
	for i := range s.A {
		s.A[i] = -s.A[i]
	}
	s.B = -s.B
}

// SwitchKey holds a key-switching key from an input key of dimension nIn to
// an output key of dimension nOut: for every input key bit i, digit position
// j and digit value v, an encryption of v * s_i / base^(j+1) under the
// output key. The v = 0 entries are stored as explicit zero samples so the
// hot loop is branch-free.
type SwitchKey struct {
	NIn     int
	NOut    int
	Levels  int // t
	BaseLog int // basebit
	// Rows[i][j][v] is an LWE sample under the output key. Exported so the
	// cluster backend can ship switch keys over the wire with encoding/gob.
	Rows [][][]*Sample
}

// NewSwitchKey builds a key-switching key from inKey to outKey with the
// given decomposition (t digits of basebit bits each) and noise alpha.
func NewSwitchKey(inKey, outKey *Key, levels, baseLog int, alpha float64, rng *trand.Source) *SwitchKey {
	base := int32(1) << baseLog
	ks := &SwitchKey{
		NIn:     inKey.N,
		NOut:    outKey.N,
		Levels:  levels,
		BaseLog: baseLog,
		Rows:    make([][][]*Sample, inKey.N),
	}
	for i := 0; i < inKey.N; i++ {
		ks.Rows[i] = make([][]*Sample, levels)
		for j := 0; j < levels; j++ {
			ks.Rows[i][j] = make([]*Sample, base)
			for v := int32(0); v < base; v++ {
				s := NewSample(outKey.N)
				if v == 0 {
					// A noiseless zero keeps the decomposition exact for
					// zero digits without spending noise budget.
					s.NoiselessTrivial(0)
				} else {
					// message: v * s_i / base^(j+1) on the torus
					mu := uint32(v) * uint32(inKey.Bits[i]) << (32 - (j+1)*baseLog)
					Encrypt(s, mu, alpha, outKey, rng)
				}
				ks.Rows[i][j][v] = s
			}
		}
	}
	return ks
}

// Apply key-switches src (under the input key) into dst (under the output
// key). dst must have dimension NOut.
func (ks *SwitchKey) Apply(dst, src *Sample) error {
	if src.Dimension() != ks.NIn {
		return fmt.Errorf("lwe: key switch input dimension %d, want %d", src.Dimension(), ks.NIn)
	}
	if dst.Dimension() != ks.NOut {
		return fmt.Errorf("lwe: key switch output dimension %d, want %d", dst.Dimension(), ks.NOut)
	}
	prec := uint(ks.Levels * ks.BaseLog)
	var roundBit uint32
	if prec < 32 {
		roundBit = uint32(1) << (31 - prec)
	}
	mask := uint32(1)<<ks.BaseLog - 1

	dst.NoiselessTrivial(src.B)
	for i, a := range src.A {
		// Round a to t*basebit bits of precision, then peel digits from the
		// most significant end.
		ai := a + roundBit
		for j := 0; j < ks.Levels; j++ {
			digit := (ai >> (32 - uint(j+1)*uint(ks.BaseLog))) & mask
			dst.SubFrom(ks.Rows[i][j][digit])
		}
	}
	return nil
}
