// Package lwe implements scalar Learning-With-Errors ciphertexts over the
// discretized torus: key generation, symmetric encryption and decryption,
// the homomorphic linear operations TFHE gates are built from, and the
// key-switching procedure that maps extracted (N·k)-dimensional samples
// back to the n-dimensional gate key.
//
//pytfhe:cryptoroot
package lwe

import (
	"fmt"
	"math"

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
// j and non-zero digit value v, an encryption of v * s_i / base^(j+1) under
// the output key. A zero digit subtracts nothing, so it has no row.
//
// The rows live in one flat slice. Row (i·Levels + j)·(base-1) + v-1 starts
// at that index times Stride(): NOut mask words, then the body, then zero
// padding up to a multiple of 8 words, so the vector kernel never needs a
// ragged tail. The base-1 rows of one (i, j) form a group, and a switch
// touches at most one row per group.
type SwitchKey struct {
	NIn     int
	NOut    int
	Levels  int // t
	BaseLog int // basebit
	// RowVariance is the noise variance every row carries (alpha²).
	RowVariance float64
	// Flat holds the rows, SwitchKeyWords(NIn, NOut, Levels, BaseLog)
	// words. Exported so the cluster backend can ship switch keys over the
	// wire with encoding/gob.
	Flat []torus.Torus32
}

// switchStride is the padded row length, in words, of a key switching to
// dimension nOut: mask and body rounded up to the 8-word vector.
func switchStride(nOut int) int { return (nOut + 1 + 7) &^ 7 }

// Stride returns the padded length of one row in words.
func (ks *SwitchKey) Stride() int { return switchStride(ks.NOut) }

// SwitchKeyWords returns the length of the flat row slice of a key from
// dimension nIn to nOut with levels digits of baseLog bits, or -1 when the
// shape is invalid or the key would pass 2^32 words, the most ApplyBatch's
// 32-bit row offsets address.
func SwitchKeyWords(nIn, nOut, levels, baseLog int) int {
	if nIn < 0 || nOut < 0 || levels < 0 || baseLog <= 0 || baseLog >= 31 {
		return -1
	}
	words := 1
	for _, f := range []int{nIn, levels, 1<<baseLog - 1, switchStride(nOut)} {
		if f != 0 && words > math.MaxUint32/f {
			return -1
		}
		words *= f
	}
	return words
}

// NewSwitchKey builds a key-switching key from inKey to outKey with the
// given decomposition (t digits of basebit bits each) and noise alpha. The
// rows are encrypted in (i, j, v) order straight into the flat form.
func NewSwitchKey(inKey, outKey *Key, levels, baseLog int, alpha float64, rng *trand.Source) *SwitchKey {
	ks := &SwitchKey{
		NIn:         inKey.N,
		NOut:        outKey.N,
		Levels:      levels,
		BaseLog:     baseLog,
		RowVariance: alpha * alpha,
		Flat:        make([]torus.Torus32, SwitchKeyWords(inKey.N, outKey.N, levels, baseLog)),
	}
	stride := ks.Stride()
	row := Sample{}
	off := 0
	for i := 0; i < inKey.N; i++ {
		for j := 0; j < levels; j++ {
			for v := 1; v < 1<<baseLog; v++ {
				// message: v * s_i / base^(j+1) on the torus
				mu := uint32(v) * uint32(inKey.Bits[i]) << (32 - (j+1)*baseLog)
				row.A = ks.Flat[off : off+outKey.N]
				Encrypt(&row, mu, alpha, outKey, rng)
				ks.Flat[off+outKey.N] = row.B
				off += stride
			}
		}
	}
	return ks
}

// check verifies that the key's rows have the length its shape implies, so
// a malformed key is an error rather than an index out of range.
func (ks *SwitchKey) check() error {
	if want := SwitchKeyWords(ks.NIn, ks.NOut, ks.Levels, ks.BaseLog); len(ks.Flat) != want {
		return fmt.Errorf("lwe: key-switching key has %d words, want %d for %d→%d with t=%d basebit=%d",
			len(ks.Flat), want, ks.NIn, ks.NOut, ks.Levels, ks.BaseLog)
	}
	return nil
}

// digitRound returns the rounding offset that keeps Levels·BaseLog bits of
// an input coefficient, and the digit mask.
func (ks *SwitchKey) digitRound() (roundBit, mask uint32) {
	if prec := uint(ks.Levels * ks.BaseLog); prec < 32 {
		roundBit = uint32(1) << (31 - prec)
	}
	return roundBit, uint32(1)<<ks.BaseLog - 1
}

// Apply key-switches src (under the input key) into dst (under the output
// key). dst must have dimension NOut. It is the member-at-a-time reference
// of ApplyBatch: one row subtraction per non-zero digit, with no scratch.
func (ks *SwitchKey) Apply(dst, src *Sample) error {
	if err := ks.checkMember(dst, src); err != nil {
		return err
	}
	if err := ks.check(); err != nil {
		return err
	}
	roundBit, mask := ks.digitRound()
	stride, group := ks.Stride(), int(mask)

	dst.NoiselessTrivial(src.B)
	g := 0
	for _, a := range src.A {
		// Round a to t*basebit bits of precision, then peel digits from the
		// most significant end.
		ai := a + roundBit
		for j := 0; j < ks.Levels; j++ {
			if d := int(ai>>(32-uint(j+1)*uint(ks.BaseLog))) & group; d != 0 {
				row := ks.Flat[(g*group+d-1)*stride:][:ks.NOut+1]
				torus.SubFrom(dst.A, row[:ks.NOut])
				dst.B -= row[ks.NOut]
				dst.Variance += ks.RowVariance
			}
			g++
		}
	}
	return nil
}

func (ks *SwitchKey) checkMember(dst, src *Sample) error {
	if src.Dimension() != ks.NIn {
		return fmt.Errorf("lwe: key switch input dimension %d, want %d", src.Dimension(), ks.NIn)
	}
	if dst.Dimension() != ks.NOut {
		return fmt.Errorf("lwe: key switch output dimension %d, want %d", dst.Dimension(), ks.NOut)
	}
	return nil
}

// SwitchScratch is the working memory of ApplyBatch: the row offsets each
// member's digits select, one padded accumulator per member and the
// variance table. The zero value is ready to use and grows on demand. It is
// not safe for concurrent use; give each goroutine its own.
type SwitchScratch struct {
	rows   []uint32
	ends   []uint32
	acc    []torus.Torus32
	counts []int
	// varSum[k] is k row variances summed one at a time, exactly as Apply
	// sums them, so a batched member's Variance equals Apply's bit for bit.
	varSum []float64
	varRow float64 // the row variance varSum was built for
}

// switchBlockBytes bounds the key rows one block of input coefficients can
// select: small enough to stay in L1 while every member of a batch takes
// its rows from the block. A block is at least one coefficient, whose rows
// fill 60 KB at Default128; that block stays in L2.
const switchBlockBytes = 32 << 10

// ApplyBatch key-switches every src[m] into dst[m]; each member's result is
// bit-identical with Apply. All digits are turned into row offsets up
// front, block by block of input coefficients and member by member within
// a block, and one torus.SwitchRows call applies them, so each block of
// the key is loaded once per batch.
func (ks *SwitchKey) ApplyBatch(dst, src []*Sample, sc *SwitchScratch) error {
	if len(dst) != len(src) {
		return fmt.Errorf("lwe: key switch batch length mismatch: dst=%d src=%d", len(dst), len(src))
	}
	for m := range src {
		if err := ks.checkMember(dst[m], src[m]); err != nil {
			return fmt.Errorf("batch member %d: %w", m, err)
		}
	}
	if err := ks.check(); err != nil {
		return err
	}
	b := len(src)
	if b == 0 {
		return nil
	}
	roundBit, mask := ks.digitRound()
	stride, group := ks.Stride(), int(mask)
	coefRows := ks.Levels * group * stride // words of key per input coefficient
	block := max(1, switchBlockBytes/(4*coefRows))
	sc.grow(b, ks.NIn*ks.Levels, ks.NIn/block+1, stride, ks.RowVariance)

	acc := sc.acc[:b*stride]
	for m, s := range src {
		sc.counts[m] = 0
		row := acc[m*stride:][:stride]
		clear(row)
		row[ks.NOut] = s.B
	}
	rows, ends := sc.rows, sc.ends[:0]
	n := 0
	for i0 := 0; i0 < ks.NIn; i0 += block {
		i1 := min(i0+block, ks.NIn)
		for m, s := range src {
			k := ks.digitRows(rows[n:], s.A[i0:i1], uint32(i0*coefRows), roundBit)
			sc.counts[m] += k
			n += k
			ends = append(ends, uint32(n))
		}
	}
	torus.SwitchRows(acc, ks.Flat, rows[:n], ends, b, stride)
	for m, d := range dst {
		row := acc[m*stride:][:ks.NOut+1]
		copy(d.A, row[:ks.NOut])
		d.B = row[ks.NOut]
		d.Variance = sc.varSum[sc.counts[m]]
	}
	return nil
}

// digitRows writes to rows the word offsets of the key rows that the
// coefficients a select, first of them the coefficient whose rows start at
// word off, and returns how many it wrote. Each coefficient is rounded to
// t·basebit bits of precision and its digits peeled from the most
// significant end; a zero digit selects no row. rows needs a slot for
// every digit of a: a zero digit writes its slot without keeping it, which
// keeps the loop free of branches.
func (ks *SwitchKey) digitRows(rows []uint32, a []torus.Torus32, off, roundBit uint32) int {
	levels, stride := ks.Levels, uint32(ks.Stride())
	// check() bounds BaseLog to [1, 30]; the masks spare the compiler its
	// handling of shifts by 32 or more.
	shift := uint(ks.BaseLog) & 31
	top := (32 - shift) & 31
	mask := uint32(1)<<shift - 1
	groupWords := mask * stride
	off -= stride // row d of a group starting at off is off + (d-1)·stride
	n := 0
	for _, c := range a {
		ai := c + roundBit
		for j := 0; j < levels; j++ {
			d := ai >> top
			ai <<= shift
			rows[n] = off + d*stride
			off += groupWords
			n += int((d + mask) >> shift)
		}
	}
	return n
}

// grow sizes the scratch for b members of groups digits each in at most
// blocks blocks, and builds the variance table for rowVariance.
func (sc *SwitchScratch) grow(b, groups, blocks, stride int, rowVariance float64) {
	if len(sc.rows) < b*groups {
		sc.rows = make([]uint32, b*groups)
	}
	if cap(sc.ends) < b*blocks {
		sc.ends = make([]uint32, 0, b*blocks)
	}
	if cap(sc.acc) < b*stride {
		sc.acc = make([]torus.Torus32, b*stride)
	}
	if cap(sc.counts) < b {
		sc.counts = make([]int, b)
	}
	if len(sc.varSum) != groups+1 || math.Float64bits(sc.varRow) != math.Float64bits(rowVariance) {
		sc.varSum = make([]float64, groups+1)
		for k := 1; k <= groups; k++ {
			sc.varSum[k] = sc.varSum[k-1] + rowVariance
		}
		sc.varRow = rowVariance
	}
}
