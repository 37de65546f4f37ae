package params

import (
	"math"
	"strings"
	"testing"

	"pytfhe/internal/torus"
)

func TestDefault128MatchesReference(t *testing.T) {
	p := Default128()
	// The reference TFHE library's default gate bootstrapping set.
	if p.LWEDimension != 630 || p.PolyDegree != 1024 || p.RingCount != 1 {
		t.Fatalf("dimensions: %+v", p)
	}
	if p.DecompLevels != 3 || p.DecompBaseLog != 7 {
		t.Fatalf("gadget: %+v", p)
	}
	if p.KSLevels != 8 || p.KSBaseLog != 2 {
		t.Fatalf("key switch: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextBytesMatchesPaper(t *testing.T) {
	// The paper reports ~2.46 KB per ciphertext: (630+1)*4 = 2524 bytes.
	if got := Default128().CiphertextBytes(); got != 2524 {
		t.Fatalf("ciphertext bytes = %d, want 2524", got)
	}
}

func TestTestParamsValid(t *testing.T) {
	if err := Test().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExtractedDimension(t *testing.T) {
	if got := Default128().ExtractedLWEDimension(); got != 1024 {
		t.Fatalf("extracted dimension = %d", got)
	}
}

func TestBases(t *testing.T) {
	p := Default128()
	if p.DecompBase() != 128 {
		t.Fatalf("Bg = %d", p.DecompBase())
	}
	if p.KSBase() != 4 {
		t.Fatalf("KS base = %d", p.KSBase())
	}
}

func TestValidateRejectsBadSets(t *testing.T) {
	cases := []func(*GateParams){
		func(p *GateParams) { p.LWEDimension = 0 },
		func(p *GateParams) { p.PolyDegree = 100 },
		func(p *GateParams) { p.PolyDegree = -4 },
		func(p *GateParams) { p.PolyDegree = 2 },
		func(p *GateParams) { p.RingCount = 0 },
		func(p *GateParams) { p.DecompLevels = 0 },
		func(p *GateParams) { p.DecompBaseLog = 0 },
		func(p *GateParams) { p.DecompLevels = 10; p.DecompBaseLog = 5 },
		func(p *GateParams) { p.KSLevels = 0 },
		func(p *GateParams) { p.KSLevels = 20; p.KSBaseLog = 2 },
		func(p *GateParams) { p.LWEStdev = 0.7 },
		func(p *GateParams) { p.TLWEStdev = -1 },
	}
	for i, mutate := range cases {
		p := Default128()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid parameters accepted", i)
		}
	}
}

// TestExternalProductWithinRoundExactBound states the worst case behind the
// transform's exactness for the built-in sets, and that Validate rejects a
// set past torus.RoundExactBound, such as N = 4096, k = 2, l = 4, Bgbit = 8
// (2^53.6), whose products the AVX2 kernels would round wrongly.
func TestExternalProductWithinRoundExactBound(t *testing.T) {
	for _, tc := range []struct {
		p    *GateParams
		log2 float64 // the worst case, as documented
	}{{Default128(), 49.6}, {Test(), 47.6}} {
		if err := tc.p.Validate(); err != nil {
			t.Errorf("%s: %v", tc.p.Name, err)
		}
		if got := math.Log2(tc.p.ExternalProductBound()); math.Abs(got-tc.log2) > 0.05 {
			t.Errorf("%s: worst-case product 2^%.2f, documented as 2^%.1f", tc.p.Name, got, tc.log2)
		}
	}
	for _, mutate := range []func(*GateParams){
		func(p *GateParams) { p.PolyDegree, p.RingCount, p.DecompLevels, p.DecompBaseLog = 4096, 2, 4, 8 },
		func(p *GateParams) { p.PolyDegree = 4096 }, // 2^51.6
	} {
		p := Default128()
		mutate(p)
		if p.ExternalProductBound() < torus.RoundExactBound {
			t.Fatalf("N=%d k=%d l=%d Bgbit=%d: bound 2^%.2f is not past the rounding bound",
				p.PolyDegree, p.RingCount, p.DecompLevels, p.DecompBaseLog, math.Log2(p.ExternalProductBound()))
		}
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "exact rounding bound") {
			t.Errorf("N=%d k=%d l=%d Bgbit=%d: Validate = %v, want the rounding-bound rejection",
				p.PolyDegree, p.RingCount, p.DecompLevels, p.DecompBaseLog, err)
		}
	}
}
