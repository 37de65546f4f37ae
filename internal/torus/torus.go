// Package torus implements arithmetic over the discretized torus
// T = R/Z represented by 32-bit integers (Torus32), together with the
// integer and torus polynomial rings Z[X]/(X^N+1) and T[X]/(X^N+1) that
// underlie the TLWE and TGSW ciphertexts of the TFHE scheme.
//
// Polynomial multiplication — the hot kernel of TFHE bootstrapping — is
// provided both as a naive O(N^2) negacyclic convolution (the reference
// used by tests) and as an O(N log N) half-complex FFT evaluated at the
// odd 2N-th roots of unity (the production path, see half.go).
//
//pytfhe:cryptoroot
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
	if useAVX2 {
		mulByXaiMinusOne(p.Coefs, src.Coefs, a, rotSubAVX2)
		return
	}
	mulByXaiMinusOne(p.Coefs, src.Coefs, a, rotSub)
}

// mulByXaiMinusOne is MulByXaiMinusOne on coefficient slices, with the
// two runs it splits into handed to the run kernel given.
func mulByXaiMinusOne(dst, src []Torus32, a int, run func(dst, x, y []Torus32, sign uint32)) {
	n := len(dst)
	s := src[:n]
	// For a >= N, X^a = -X^(a-N). Multiplying by X^a moves coefficient i to
	// i+a; the top a coefficients wrap to the bottom with the opposite sign.
	sign := uint32(1)
	if a &= 2*n - 1; a >= n {
		a -= n
		sign = ^uint32(0) // -1
	}
	run(dst[:a], s[n-a:], s[:a], -sign)
	run(dst[a:], s[:n-a], s[a:], sign)
}

// rotSub is the portable run kernel of MulByXaiMinusOne: dst[i] =
// sign·x[i] - y[i] for every i < len(dst), with sign = ±1.
func rotSub(dst, x, y []Torus32, sign uint32) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = sign*x[i] - y[i]
	}
}

// SwitchRows is the batched key-switch kernel: it subtracts key rows of
// stride words from members accumulators, acc[m·stride:(m+1)·stride].
// rows holds word offsets into key, in segments: segment s is
// rows[ends[s-1]:ends[s]] (from 0 for s = 0) and belongs to member
// s mod members. A caller that orders segments block by block, every
// member's rows of one block of the key before the next block, loads each
// block into the cache once per batch rather than once per member.
func SwitchRows(acc, key []Torus32, rows, ends []uint32, members, stride int) {
	if members <= 0 || stride <= 0 || len(ends)%members != 0 || len(acc) < members*stride {
		panic("torus: SwitchRows accumulator or segment shape mismatch")
	}
	pos := uint32(0)
	for _, end := range ends {
		if end < pos || int(end) > len(rows) {
			panic("torus: SwitchRows segment ends out of order")
		}
		pos = end
	}
	last := uint32(0)
	for _, r := range rows[:pos] {
		last = max(last, r)
	}
	if pos > 0 && uint64(last)+uint64(stride) > uint64(len(key)) {
		panic("torus: SwitchRows row past the end of the key")
	}
	if useAVX2 && stride%8 == 0 {
		switchRowsAVX2(acc, key, rows, ends, members, stride)
		return
	}
	switchRows(acc, key, rows, ends, members, stride)
}

// switchRows is the portable SwitchRows kernel.
func switchRows(acc, key []Torus32, rows, ends []uint32, members, stride int) {
	pos := uint32(0)
	for s, end := range ends {
		a := acc[s%members*stride:][:stride]
		for _, r := range rows[pos:end] {
			sub(a, key[r:][:stride])
		}
		pos = end
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
