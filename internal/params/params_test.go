package params

import "testing"

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
