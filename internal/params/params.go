// Package params defines the TFHE parameter sets used throughout PyTFHE.
//
// The Default128 set follows the defaults of the reference TFHE library
// (Chillotti et al., §VIII of the TFHE paper) for a 128-bit security level:
// LWE dimension n = 630, ring dimension N = 1024 with k = 1, TGSW gadget
// decomposition with l = 3 levels in base 2^7, and a key-switching key with
// t = 8 digits in base 2^2.
//
// The Test set is a drastically reduced configuration used by unit tests. It
// exercises exactly the same code paths (blind rotation, external products,
// key switching) at a fraction of the cost, with noise small enough that
// gate evaluations always decrypt correctly. It provides no security.
package params

import (
	"fmt"
	"math"

	"pytfhe/internal/torus"
)

// GateParams bundles every parameter needed for TFHE gate bootstrapping.
type GateParams struct {
	// Name identifies the set in logs and benchmark output.
	Name string

	// LWE (scalar) ciphertext parameters.
	LWEDimension int     // n: length of an LWE mask
	LWEStdev     float64 // fresh LWE noise standard deviation (as a real in [0,1))

	// TLWE (ring) ciphertext parameters.
	PolyDegree int     // N: degree of the quotient ring X^N+1 (power of two)
	RingCount  int     // k: number of mask polynomials
	TLWEStdev  float64 // fresh TLWE noise standard deviation

	// TGSW gadget decomposition parameters (bootstrapping key).
	DecompLevels  int // l: number of decomposition levels
	DecompBaseLog int // Bgbit: log2 of the decomposition base Bg

	// Key-switching key parameters.
	KSLevels  int // t: number of key-switch digits
	KSBaseLog int // basebit: log2 of the key-switch base
}

// Default128 returns the 128-bit-security gate bootstrapping parameter set
// used by the reference TFHE library and assumed throughout the paper.
func Default128() *GateParams {
	return &GateParams{
		Name:          "default128",
		LWEDimension:  630,
		LWEStdev:      math.Pow(2, -15),
		PolyDegree:    1024,
		RingCount:     1,
		TLWEStdev:     math.Pow(2, -25),
		DecompLevels:  3,
		DecompBaseLog: 7,
		KSLevels:      8,
		KSBaseLog:     2,
	}
}

// Test returns a reduced parameter set for fast unit testing. It offers no
// cryptographic security: the dimensions are tiny and the noise is far below
// what a secure instantiation would require. It exists so that the full
// bootstrapping pipeline can be exercised in milliseconds.
func Test() *GateParams {
	return &GateParams{
		Name:          "test",
		LWEDimension:  64,
		LWEStdev:      math.Pow(2, -20),
		PolyDegree:    256,
		RingCount:     1,
		TLWEStdev:     math.Pow(2, -30),
		DecompLevels:  3,
		DecompBaseLog: 7,
		KSLevels:      8,
		KSBaseLog:     2,
	}
}

// ExtractedLWEDimension returns the dimension of LWE samples extracted from
// a TLWE sample under this parameter set (N*k).
func (p *GateParams) ExtractedLWEDimension() int {
	return p.PolyDegree * p.RingCount
}

// DecompBase returns the gadget decomposition base Bg = 2^DecompBaseLog.
func (p *GateParams) DecompBase() int32 {
	return int32(1) << p.DecompBaseLog
}

// KSBase returns the key-switching base 2^KSBaseLog.
func (p *GateParams) KSBase() int32 {
	return int32(1) << p.KSBaseLog
}

// CiphertextBytes returns the serialized size in bytes of one LWE ciphertext
// under this parameter set: (n+1) torus coefficients of 4 bytes each. For
// Default128 this is (630+1)*4 = 2524 bytes ≈ the 2.46 KB the paper reports
// as the per-gate communication payload.
func (p *GateParams) CiphertextBytes() int {
	return (p.LWEDimension + 1) * 4
}

// ExternalProductBound returns the largest magnitude an external product
// can reach before its rounding onto the torus: (k+1)·l negacyclic products
// of N terms, each a gadget digit (|d| ≤ Bg/2) times a torus coefficient
// (|c| ≤ 2^31), so (Bg/2)·2^31·N·(k+1)·l. Validate rejects a set whose bound
// reaches torus.RoundExactBound, past which the kernels' rounding is not
// exact: 2^49.6 at Default128, 2^47.6 at Test.
func (p *GateParams) ExternalProductBound() float64 {
	return math.Ldexp(1, p.DecompBaseLog-1+31) * float64(p.PolyDegree) *
		float64(p.RingCount+1) * float64(p.DecompLevels)
}

// Validate reports whether the parameter set is internally consistent.
func (p *GateParams) Validate() error {
	switch {
	case p.LWEDimension <= 0:
		return errf("LWE dimension must be positive, got %d", p.LWEDimension)
	case p.PolyDegree < 4 || p.PolyDegree&(p.PolyDegree-1) != 0:
		// 4 is the smallest ring the half-complex transform handles.
		return errf("polynomial degree must be a power of two, at least 4, got %d", p.PolyDegree)
	case p.RingCount <= 0:
		return errf("ring count must be positive, got %d", p.RingCount)
	case p.DecompLevels <= 0 || p.DecompBaseLog <= 0:
		return errf("invalid gadget decomposition l=%d Bgbit=%d", p.DecompLevels, p.DecompBaseLog)
	case p.DecompLevels*p.DecompBaseLog > 32:
		return errf("gadget decomposition deeper than the torus: l*Bgbit = %d > 32", p.DecompLevels*p.DecompBaseLog)
	case p.ExternalProductBound() >= torus.RoundExactBound:
		return errf("external products reach 2^%.2f, past the exact rounding bound 2^%.2f: lower N, k, l or Bgbit",
			math.Log2(p.ExternalProductBound()), math.Log2(torus.RoundExactBound))
	case p.KSLevels <= 0 || p.KSBaseLog <= 0:
		return errf("invalid key switch t=%d basebit=%d", p.KSLevels, p.KSBaseLog)
	case p.KSLevels*p.KSBaseLog > 32:
		return errf("key switch decomposition deeper than the torus: t*basebit = %d > 32", p.KSLevels*p.KSBaseLog)
	case p.LWEStdev < 0 || p.LWEStdev >= 0.5:
		return errf("LWE stdev out of range: %g", p.LWEStdev)
	case p.TLWEStdev < 0 || p.TLWEStdev >= 0.5:
		return errf("TLWE stdev out of range: %g", p.TLWEStdev)
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}
