// Package tlwe implements ring-LWE ("TLWE") ciphertexts over torus
// polynomials: key generation, encryption of polynomial messages, the
// homomorphic ring operations used during blind rotation, and the sample
// extraction that converts coefficient 0 of a TLWE phase into a scalar LWE
// sample.
//
//pytfhe:cryptoroot
package tlwe

import (
	"sync"

	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// Key is a TLWE secret key: k binary polynomials of degree N.
type Key struct {
	N     int // ring degree
	K     int // number of mask polynomials
	Polys []*torus.IntPoly
	Stdev float64

	// Half-complex form of the key polynomials: it makes bulk encryption
	// (bootstrapping-key generation) O(N log N) per sample instead of
	// O(N^2). Built on first encryption rather than in NewKey because
	// gob-decoded keys carry only the exported fields; the Once makes
	// concurrent encryptions under one key safe.
	halfOnce sync.Once
	half     []*torus.HalfPoly
}

// halfKey returns the half-complex form of the key polynomials.
func (key *Key) halfKey() []*torus.HalfPoly {
	key.halfOnce.Do(func() {
		proc := torus.NewProcessor(key.N)
		key.half = make([]*torus.HalfPoly, key.K)
		for i, p := range key.Polys {
			key.half[i] = torus.NewHalfPoly(key.N / 2)
			proc.HalfFoldInt(key.half[i], p)
		}
	})
	return key.half
}

// NewKey samples a fresh binary TLWE key with k polynomials of degree n.
func NewKey(n, k int, stdev float64, rng *trand.Source) *Key {
	key := &Key{N: n, K: k, Stdev: stdev, Polys: make([]*torus.IntPoly, k)}
	for i := range key.Polys {
		p := torus.NewIntPoly(n)
		for j := range p.Coefs {
			p.Coefs[j] = rng.Bit()
		}
		key.Polys[i] = p
	}
	return key
}

// ExtractLWEKey returns the (N·k)-dimensional scalar LWE key whose bits are
// the coefficients of the TLWE key. Samples extracted from TLWE ciphertexts
// decrypt under this key.
func (key *Key) ExtractLWEKey() *lwe.Key {
	out := &lwe.Key{N: key.N * key.K, Bits: make([]int32, key.N*key.K), Stdev: key.Stdev}
	for i, p := range key.Polys {
		copy(out.Bits[i*key.N:], p.Coefs)
	}
	return out
}

// Sample is a TLWE ciphertext: k mask polynomials A[0..k-1] and the body
// polynomial B (stored as A[k]).
type Sample struct {
	A        []*torus.TorusPoly // length k+1; A[k] is the body
	K        int
	Variance float64
}

// NewSample returns a zero TLWE sample for ring degree n with k masks.
func NewSample(n, k int) *Sample {
	s := &Sample{A: make([]*torus.TorusPoly, k+1), K: k}
	for i := range s.A {
		s.A[i] = torus.NewTorusPoly(n)
	}
	return s
}

// B returns the body polynomial of the sample.
func (s *Sample) B() *torus.TorusPoly { return s.A[s.K] }

// N returns the ring degree.
func (s *Sample) N() int { return s.A[0].N() }

// Clear resets the sample to the trivial encryption of zero.
func (s *Sample) Clear() {
	for _, p := range s.A {
		p.Clear()
	}
	s.Variance = 0
}

// Copy copies src into s.
func (s *Sample) Copy(src *Sample) {
	for i, p := range src.A {
		s.A[i].Copy(p)
	}
	s.Variance = src.Variance
}

// NoiselessTrivial sets the sample to (0, mu) for a public polynomial mu.
func (s *Sample) NoiselessTrivial(mu *torus.TorusPoly) {
	for i := 0; i < s.K; i++ {
		s.A[i].Clear()
	}
	s.B().Copy(mu)
	s.Variance = 0
}

// AddTo computes s += src.
func (s *Sample) AddTo(src *Sample) {
	for i, p := range src.A {
		s.A[i].AddTo(p)
	}
	s.Variance += src.Variance
}

// SubFrom computes s -= src.
func (s *Sample) SubFrom(src *Sample) {
	for i, p := range src.A {
		s.A[i].SubFrom(p)
	}
	s.Variance += src.Variance
}

// MulByXaiMinusOne sets s = (X^a - 1) * src component-wise.
func (s *Sample) MulByXaiMinusOne(a int, src *Sample) {
	for i, p := range src.A {
		s.A[i].MulByXaiMinusOne(a, p)
	}
	s.Variance = 2 * src.Variance
}

// Encryptor encrypts under one key with its transform buffers allocated
// once, so a keygen loop of thousands of ring encryptions reuses them. It is
// not safe for concurrent use; give each goroutine its own.
type Encryptor struct {
	key     *Key
	proc    *torus.Processor
	fa, acc *torus.HalfPoly
}

// NewEncryptor returns an Encryptor for key.
func NewEncryptor(key *Key) *Encryptor {
	return &Encryptor{
		key:  key,
		proc: torus.NewProcessor(key.N),
		fa:   torus.NewHalfPoly(key.N / 2),
		acc:  torus.NewHalfPoly(key.N / 2),
	}
}

// EncryptZero fills dst with an encryption of the zero polynomial. The
// mask-times-key products run through the half-complex transform so that
// bootstrapping-key generation stays O(N log N) per sample.
func (e *Encryptor) EncryptZero(dst *Sample, alpha float64, rng *trand.Source) {
	key := e.key
	n := key.N
	keyH := key.halfKey()
	b := dst.B()
	for j := 0; j < n; j++ {
		b.Coefs[j] = trand.DoubleToTorus32(rng.Normal() * alpha)
	}
	e.acc.Clear()
	for i := 0; i < key.K; i++ {
		a := dst.A[i]
		for j := 0; j < n; j++ {
			a.Coefs[j] = rng.Torus32()
		}
		e.proc.HalfFoldTorus(e.fa, a)
		e.acc.MulAccTo(keyH[i], e.fa)
	}
	e.proc.AddHalfToTorus(b, e.acc)
	dst.Variance = alpha * alpha
}

// EncryptZero is the one-shot form of Encryptor.EncryptZero: it allocates
// its buffers per call, and is safe for concurrent use under one key given
// one rng per goroutine.
func EncryptZero(dst *Sample, alpha float64, key *Key, rng *trand.Source) {
	NewEncryptor(key).EncryptZero(dst, alpha, rng)
}

// Encrypt encrypts the torus polynomial mu: dst = EncZero + (0, mu).
func Encrypt(dst *Sample, mu *torus.TorusPoly, alpha float64, key *Key, rng *trand.Source) {
	EncryptZero(dst, alpha, key, rng)
	dst.B().AddTo(mu)
}

// Phase computes the phase polynomial b - sum_i a_i * s_i of the sample.
func Phase(dst *torus.TorusPoly, s *Sample, key *Key) {
	dst.Copy(s.B())
	neg := torus.NewTorusPoly(key.N)
	tmp := torus.NewTorusPoly(key.N)
	for i := 0; i < key.K; i++ {
		torus.MulNaive(tmp, key.Polys[i], s.A[i])
		neg.AddTo(tmp)
	}
	dst.SubFrom(neg)
}

// ExtractSample extracts coefficient 0 of the phase of src as a scalar LWE
// sample of dimension N·k (under the key returned by ExtractLWEKey).
func ExtractSample(dst *lwe.Sample, src *Sample) {
	n := src.N()
	for i := 0; i < src.K; i++ {
		a := src.A[i]
		base := i * n
		dst.A[base] = a.Coefs[0]
		for j := 1; j < n; j++ {
			dst.A[base+j] = -a.Coefs[n-j]
		}
	}
	dst.B = src.B().Coefs[0]
	dst.Variance = src.Variance
}
