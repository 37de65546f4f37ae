// Package torus implements arithmetic over the discretized torus
// T = R/Z represented by 32-bit integers (Torus32), together with the
// integer and torus polynomial rings Z[X]/(X^N+1) and T[X]/(X^N+1) that
// underlie the TLWE and TGSW ciphertexts of the TFHE scheme.
//
// Polynomial multiplication — the hot kernel of TFHE bootstrapping — is
// provided both as a naive O(N^2) negacyclic convolution (the reference
// used by tests) and as an O(N log N) half-complex FFT evaluated at the
// odd 2N-th roots of unity (the production path, see half.go).
package torus

// Torus32 is one element of the discretized torus: the uint32 value t
// represents the real number t / 2^32 (mod 1).
type Torus32 = uint32

// ModSwitchToTorus32 encodes the message mu in a message space of size
// msize as the torus element mu/msize. Centers of the message slots are
// offset by half a slot so that decoding is symmetric.
func ModSwitchToTorus32(mu, msize int32) Torus32 {
	interval := (uint64(1) << 32) / uint64(uint32(msize))
	phase := uint64(uint32(mu)%uint32(msize)) * interval
	return Torus32(phase)
}

// ModSwitchFromTorus32 decodes the torus element phase into the nearest
// message in a message space of size msize.
func ModSwitchFromTorus32(phase Torus32, msize int32) int32 {
	interval := (uint64(1) << 32) / uint64(uint32(msize))
	half := interval / 2
	v := (uint64(phase) + half) / interval
	return int32(v % uint64(uint32(msize)))
}

// IntPoly is a polynomial with (small) integer coefficients in
// Z[X]/(X^N+1), coefficient 0 first.
type IntPoly struct {
	Coefs []int32
}

// NewIntPoly returns a zero integer polynomial of degree bound n.
func NewIntPoly(n int) *IntPoly {
	return &IntPoly{Coefs: make([]int32, n)}
}

// N returns the degree bound of the polynomial.
func (p *IntPoly) N() int { return len(p.Coefs) }

// Clear zeroes all coefficients.
func (p *IntPoly) Clear() {
	for i := range p.Coefs {
		p.Coefs[i] = 0
	}
}

// Copy copies src into p. The polynomials must have the same degree.
func (p *IntPoly) Copy(src *IntPoly) {
	copy(p.Coefs, src.Coefs)
}

// TorusPoly is a polynomial with torus coefficients in T[X]/(X^N+1),
// coefficient 0 first.
type TorusPoly struct {
	Coefs []Torus32
}

// NewTorusPoly returns a zero torus polynomial of degree bound n.
func NewTorusPoly(n int) *TorusPoly {
	return &TorusPoly{Coefs: make([]Torus32, n)}
}

// N returns the degree bound of the polynomial.
func (p *TorusPoly) N() int { return len(p.Coefs) }

// Clear zeroes all coefficients.
func (p *TorusPoly) Clear() {
	for i := range p.Coefs {
		p.Coefs[i] = 0
	}
}

// Copy copies src into p. The polynomials must have the same degree.
func (p *TorusPoly) Copy(src *TorusPoly) {
	copy(p.Coefs, src.Coefs)
}

// AddTo adds src to p coefficient-wise.
func (p *TorusPoly) AddTo(src *TorusPoly) {
	for i, c := range src.Coefs {
		p.Coefs[i] += c
	}
}

// SubFrom subtracts src from p coefficient-wise.
func (p *TorusPoly) SubFrom(src *TorusPoly) {
	SubFrom(p.Coefs, src.Coefs)
}

// SubFrom computes dst[i] -= src[i] for every i < len(src). It is the row
// update of key switching.
func SubFrom(dst, src []Torus32) {
	if useAVX2 {
		subAVX2(dst, src)
		return
	}
	sub(dst, src)
}

// sub is the portable SubFrom kernel.
func sub(dst, src []Torus32) {
	for i, c := range src {
		dst[i] -= c
	}
}

// GadgetDigit sets dst[i] = ((src[i]+offset) >> shift) mod 2^baseLog,
// minus 2^(baseLog-1), for every i < len(src): one level of a balanced
// gadget decomposition whose rounding offset is offset.
func GadgetDigit(dst []int32, src []Torus32, offset uint32, shift, baseLog uint) {
	if useAVX2 {
		gadgetDigitAVX2(dst, src, offset, shift, baseLog)
		return
	}
	gadgetDigit(dst, src, offset, shift, baseLog)
}

// gadgetDigit is the portable GadgetDigit kernel.
func gadgetDigit(dst []int32, src []Torus32, offset uint32, shift, baseLog uint) {
	mask := uint32(1)<<baseLog - 1
	half := int32(1) << (baseLog - 1)
	for i, c := range src {
		dst[i] = int32(((c+offset)>>shift)&mask) - half
	}
}

// AddMulZTo adds z*src to p, where z is a plain integer.
func (p *TorusPoly) AddMulZTo(z int32, src *TorusPoly) {
	zz := uint32(z)
	for i, c := range src.Coefs {
		p.Coefs[i] += zz * c
	}
}

// MulByXaiMinusOne sets p = (X^a - 1) * src in T[X]/(X^N+1), with
// 0 <= a < 2N. This is the accumulator update primitive of blind rotation.
func (p *TorusPoly) MulByXaiMinusOne(a int, src *TorusPoly) {
	n := p.N()
	s := src.Coefs[:n]
	// For a >= N, X^a = -X^(a-N). Multiplying by X^a moves coefficient i to
	// i+a; the top a coefficients wrap to the bottom with the opposite sign.
	sign := uint32(1)
	if a &= 2*n - 1; a >= n {
		a -= n
		sign = ^uint32(0) // -1
	}
	lo, s0 := p.Coefs[:a], s[:a]
	wrap := s[n-a:][:len(lo)]
	for i := range lo {
		lo[i] = -sign*wrap[i] - s0[i]
	}
	hi, straight, s1 := p.Coefs[a:n], s[:n-a], s[a:]
	for i := range hi {
		hi[i] = sign*straight[i] - s1[i]
	}
}

// MulByXai sets p = X^a * src in T[X]/(X^N+1), with 0 <= a < 2N.
func (p *TorusPoly) MulByXai(a int, src *TorusPoly) {
	n := p.N()
	if a &= 2*n - 1; a < n {
		for i := 0; i < a; i++ {
			p.Coefs[i] = -src.Coefs[i-a+n]
		}
		for i := a; i < n; i++ {
			p.Coefs[i] = src.Coefs[i-a]
		}
	} else {
		aa := a - n
		for i := 0; i < aa; i++ {
			p.Coefs[i] = src.Coefs[i-aa+n]
		}
		for i := aa; i < n; i++ {
			p.Coefs[i] = -src.Coefs[i-aa]
		}
	}
}

// MulNaive computes the negacyclic product result = a * b in T[X]/(X^N+1)
// by direct O(N^2) convolution. It is the correctness reference for the FFT
// multiplier and the default for very small rings.
func MulNaive(result *TorusPoly, a *IntPoly, b *TorusPoly) {
	n := result.N()
	for i := range result.Coefs {
		result.Coefs[i] = 0
	}
	for i, ai := range a.Coefs {
		if ai == 0 {
			continue
		}
		aa := uint32(ai)
		for j, bj := range b.Coefs {
			k := i + j
			if k < n {
				result.Coefs[k] += aa * bj
			} else {
				result.Coefs[k-n] -= aa * bj
			}
		}
	}
}

// AddMulNaive computes result += a * b by direct negacyclic convolution.
func AddMulNaive(result *TorusPoly, a *IntPoly, b *TorusPoly) {
	n := result.N()
	for i, ai := range a.Coefs {
		if ai == 0 {
			continue
		}
		aa := uint32(ai)
		for j, bj := range b.Coefs {
			k := i + j
			if k < n {
				result.Coefs[k] += aa * bj
			} else {
				result.Coefs[k-n] -= aa * bj
			}
		}
	}
}
