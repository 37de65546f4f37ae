package boot

import (
	"testing"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

func TestBootstrapRefreshesNoise(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-refresh"))
	p := params.Test()
	sk, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ck)
	mu := torus.Torus32(1) << 29 // 1/8

	for _, positive := range []bool{true, false} {
		msg := mu
		if !positive {
			msg = -mu
		}
		in := lwe.NewSample(p.LWEDimension)
		lwe.Encrypt(in, msg, p.LWEStdev, sk.LWE, rng)
		out := lwe.NewSample(p.LWEDimension)
		if err := eval.Bootstrap(out, mu, in); err != nil {
			t.Fatal(err)
		}
		phase := int32(lwe.Phase(out, sk.LWE))
		if positive && phase <= 0 {
			t.Fatalf("bootstrap of +1/8 gave phase %d", phase)
		}
		if !positive && phase >= 0 {
			t.Fatalf("bootstrap of -1/8 gave phase %d", phase)
		}
		// The refreshed phase must be close to ±1/8: within 1/32 of it.
		want := int32(mu)
		if !positive {
			want = -want
		}
		diff := phase - want
		if diff < 0 {
			diff = -diff
		}
		if diff > 1<<27 {
			t.Fatalf("refreshed phase %d too far from %d", phase, want)
		}
	}
}

func TestBootstrapWoKSDimension(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-dim"))
	p := params.Test()
	sk, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ck)
	in := lwe.NewSample(p.LWEDimension)
	lwe.Encrypt(in, 1<<29, p.LWEStdev, sk.LWE, rng)
	out := lwe.NewSample(p.ExtractedLWEDimension())
	if err := eval.BootstrapWoKS(out, 1<<29, in); err != nil {
		t.Fatal(err)
	}
	// Must decrypt under the extracted key.
	if phase := int32(lwe.Phase(out, sk.Extracted)); phase <= 0 {
		t.Fatalf("phase under extracted key = %d, want positive", phase)
	}
}

// TestBootstrapChecksDimensionsUpFront: every entry point rejects a wrong
// input or output dimension with an error, before any rotation runs (the
// profile stays empty) — none reaches the index panic in extraction.
func TestBootstrapChecksDimensionsUpFront(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-dims"))
	p := params.Test()
	_, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ck)
	eval.Profile = true
	n, ext := p.LWEDimension, p.ExtractedLWEDimension()
	mu := torus.Torus32(1) << 29
	lut := func(int) torus.Torus32 { return mu }
	one := func(s *lwe.Sample) []*lwe.Sample { return []*lwe.Sample{s} }
	mus := []torus.Torus32{mu}
	cases := []struct {
		name string
		call func(dst, src *lwe.Sample) error
		dst  int // wrong output dimension
	}{
		{"Bootstrap", func(d, s *lwe.Sample) error { return eval.Bootstrap(d, mu, s) }, ext},
		{"BootstrapWoKS", func(d, s *lwe.Sample) error { return eval.BootstrapWoKS(d, mu, s) }, n},
		{"BootstrapLUT", func(d, s *lwe.Sample) error { return eval.BootstrapLUT(d, lut, 8, s) }, ext},
		{"BootstrapLUTWoKS", func(d, s *lwe.Sample) error { return eval.BootstrapLUTWoKS(d, lut, 8, s) }, n},
		{"BootstrapBatch", func(d, s *lwe.Sample) error { return eval.BootstrapBatch(one(d), mus, one(s)) }, ext},
		{"BootstrapBatchWoKS", func(d, s *lwe.Sample) error { return eval.BootstrapBatchWoKS(one(d), mus, one(s)) }, n},
		{"BootstrapMixedBatch", func(d, s *lwe.Sample) error {
			return eval.BootstrapMixedBatch(one(d), mus, []LUT{lut}, 8, one(s))
		}, ext},
	}
	for _, tc := range cases {
		good := n + ext - tc.dst // the right output dimension is the other one
		if err := tc.call(lwe.NewSample(tc.dst), lwe.NewSample(n)); err == nil {
			t.Errorf("%s accepted output dimension %d", tc.name, tc.dst)
		}
		if err := tc.call(lwe.NewSample(good), lwe.NewSample(n+1)); err == nil {
			t.Errorf("%s accepted input dimension %d", tc.name, n+1)
		}
	}
	if eval.Prof != (Profile{}) {
		t.Fatalf("rejected calls did kernel work: %+v", eval.Prof)
	}
	if err := eval.BootstrapLUT(lwe.NewSample(n), nil, 8, lwe.NewSample(n)); err == nil {
		t.Error("BootstrapLUT accepted a nil LUT")
	}
}

// TestSingleEntryPointsAreNotBatches: a single-gate call is the batch of one
// inside the evaluator but must not count as a batched dispatch, or the
// batch-fill figures built on Profile would be diluted.
func TestSingleEntryPointsAreNotBatches(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-single-prof"))
	p := params.Test()
	_, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ck)
	eval.Profile = true
	in := lwe.NewSample(p.LWEDimension)
	out, extr := lwe.NewSample(p.LWEDimension), lwe.NewSample(p.ExtractedLWEDimension())
	lut := func(int) torus.Torus32 { return 1 << 29 }
	for _, err := range []error{
		eval.Bootstrap(out, 1<<29, in),
		eval.BootstrapWoKS(extr, 1<<29, in),
		eval.BootstrapLUT(out, lut, 8, in),
		eval.BootstrapLUTWoKS(extr, lut, 8, in),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if eval.Prof.Batches != 0 || eval.Prof.BatchedGates != 0 {
		t.Fatalf("single-gate calls counted as batches: %+v", eval.Prof)
	}
	if eval.Prof.Gates != 2 { // the two key-switched calls
		t.Fatalf("Gates = %d, want 2", eval.Prof.Gates)
	}
}

func TestGenerateKeysRejectsBadParams(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-bad"))
	bad := params.Test()
	bad.PolyDegree = 100 // not a power of two
	if _, _, err := GenerateKeys(bad, rng); err == nil {
		t.Fatal("expected parameter validation error")
	}
}

// TestFullParamGate exercises one bootstrapped gate with the production
// 128-bit parameter set. It is the calibration point for every cost model in
// the benchmark harness.
func TestFullParamGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-parameter bootstrap skipped in -short mode")
	}
	rng := trand.NewSeeded([]byte("boot-full"))
	p := params.Default128()
	sk, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ck)
	mu := torus.Torus32(1) << 29

	// NAND truth table through the real linear-combination + bootstrap path.
	enc := func(b bool) *lwe.Sample {
		m := mu
		if !b {
			m = -mu
		}
		s := lwe.NewSample(p.LWEDimension)
		lwe.Encrypt(s, m, p.LWEStdev, sk.LWE, rng)
		return s
	}
	for _, a := range []bool{false, true} {
		for _, b := range []bool{false, true} {
			tmp := lwe.NewSample(p.LWEDimension)
			tmp.NoiselessTrivial(mu)
			tmp.SubFrom(enc(a))
			tmp.SubFrom(enc(b))
			out := lwe.NewSample(p.LWEDimension)
			if err := eval.Bootstrap(out, mu, tmp); err != nil {
				t.Fatal(err)
			}
			got := int32(lwe.Phase(out, sk.LWE)) > 0
			if got != !(a && b) {
				t.Fatalf("NAND(%v,%v) = %v", a, b, got)
			}
		}
	}
}

// TestBootstrapLUT exercises programmable bootstrapping: an arbitrary
// lookup table evaluated during the noise refresh (§II.B of the paper).
func TestBootstrapLUT(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-lut"))
	p := params.Test()
	sk, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ck)

	const msize = 8
	table := []int32{3, 0, 6, 5} // arbitrary f over [0, msize/2)
	lut := func(m int) torus.Torus32 {
		if m < len(table) {
			return torus.ModSwitchToTorus32(table[m], msize)
		}
		return 0
	}

	for m := int32(0); m < msize/2; m++ {
		in := lwe.NewSample(p.LWEDimension)
		lwe.Encrypt(in, torus.ModSwitchToTorus32(m, msize), p.LWEStdev, sk.LWE, rng)
		out := lwe.NewSample(p.LWEDimension)
		if err := eval.BootstrapLUT(out, lut, msize, in); err != nil {
			t.Fatal(err)
		}
		got := lwe.Decrypt(out, sk.LWE, msize)
		if got != table[m] {
			t.Fatalf("lut(%d) = %d, want %d", m, got, table[m])
		}
	}
}

func TestBootstrapLUTNegacyclicWraparound(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-lut-wrap"))
	p := params.Test()
	sk, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ck)

	const msize = 8
	lut := func(m int) torus.Torus32 { return torus.ModSwitchToTorus32(1, msize) }
	// A message in the upper half decrypts to the negated table entry.
	in := lwe.NewSample(p.LWEDimension)
	lwe.Encrypt(in, torus.ModSwitchToTorus32(5, msize), p.LWEStdev, sk.LWE, rng)
	out := lwe.NewSample(p.LWEDimension)
	if err := eval.BootstrapLUT(out, lut, msize, in); err != nil {
		t.Fatal(err)
	}
	got := lwe.Decrypt(out, sk.LWE, msize)
	if got != 7 { // -1 mod 8
		t.Fatalf("upper-half message returned %d, want -lut = 7", got)
	}
}

func TestBootstrapLUTValidation(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-lut-bad"))
	p := params.Test()
	_, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ck)
	in := lwe.NewSample(p.LWEDimension)
	out := lwe.NewSample(p.LWEDimension)
	lut := func(m int) torus.Torus32 { return 0 }
	if err := eval.BootstrapLUT(out, lut, 7, in); err == nil {
		t.Fatal("odd message space accepted")
	}
	if err := eval.BootstrapLUT(out, lut, 4*p.PolyDegree, in); err == nil {
		t.Fatal("oversized message space accepted")
	}
}
