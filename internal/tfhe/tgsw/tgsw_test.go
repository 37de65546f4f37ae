package tgsw

import (
	"math"
	"testing"

	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

const (
	testN = 256
	testK = 1
)

var testParams = Params{Levels: 3, BaseLog: 7}

func TestDecomposeRecompose(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-decomp"))
	src := torus.NewTorusPoly(testN)
	for i := range src.Coefs {
		src.Coefs[i] = rng.Torus32()
	}
	dst := make([]*torus.IntPoly, testParams.Levels)
	for i := range dst {
		dst[i] = torus.NewIntPoly(testN)
	}
	DecomposePoly(dst, src, testParams)

	halfBase := int32(1) << (testParams.BaseLog - 1)
	// Recompose: sum_j dst[j] * 2^(32-(j+1)*BaseLog) truncates src's low
	// bits, so the error is one-sided and below 1/Bg^l in magnitude.
	for i := range src.Coefs {
		var recomposed uint32
		for j := 0; j < testParams.Levels; j++ {
			d := dst[j].Coefs[i]
			if d < -halfBase || d >= halfBase {
				t.Fatalf("digit out of range: %d", d)
			}
			recomposed += uint32(d) << (32 - uint(j+1)*uint(testParams.BaseLog))
		}
		diff := int32(recomposed - src.Coefs[i])
		limit := int32(1) << (32 - uint(testParams.Levels)*uint(testParams.BaseLog))
		if diff > 0 || diff <= -limit {
			t.Fatalf("coef %d: recomposition error %d outside (-%d, 0]", i, diff, limit)
		}
	}
}

func TestExternalProductSelectsMessage(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-extprod"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	const msize = 8

	for _, bit := range []int32{0, 1} {
		g := NewSample(testN, testK, testParams)
		Encrypt(g, bit, key.TLWE.Stdev, key, rng)
		proc := torus.NewProcessor(testN)
		fg := g.ToHalf(proc)

		mu := torus.NewTorusPoly(testN)
		mu.Coefs[0] = torus.ModSwitchToTorus32(3, msize)
		mu.Coefs[7] = torus.ModSwitchToTorus32(5, msize)
		c := tlwe.NewSample(testN, testK)
		tlwe.Encrypt(c, mu, key.TLWE.Stdev, key.TLWE, rng)

		acc := tlwe.NewSample(testN, testK)
		sc := NewScratch(testN, testK, testParams)
		sc.ExternalProductAdd(acc, fg, c)

		phase := torus.NewTorusPoly(testN)
		tlwe.Phase(phase, acc, key.TLWE)
		want0, want7 := int32(0), int32(0)
		if bit == 1 {
			want0, want7 = 3, 5
		}
		if got := torus.ModSwitchFromTorus32(phase.Coefs[0], msize); got != want0 {
			t.Fatalf("bit=%d coef0 = %d, want %d", bit, got, want0)
		}
		if got := torus.ModSwitchFromTorus32(phase.Coefs[7], msize); got != want7 {
			t.Fatalf("bit=%d coef7 = %d, want %d", bit, got, want7)
		}
	}
}

func TestCMux(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-cmux"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	proc := torus.NewProcessor(testN)
	const msize = 8

	mu1 := torus.NewTorusPoly(testN)
	mu0 := torus.NewTorusPoly(testN)
	mu1.Coefs[0] = torus.ModSwitchToTorus32(6, msize)
	mu0.Coefs[0] = torus.ModSwitchToTorus32(2, msize)
	c1 := tlwe.NewSample(testN, testK)
	c0 := tlwe.NewSample(testN, testK)
	tlwe.Encrypt(c1, mu1, key.TLWE.Stdev, key.TLWE, rng)
	tlwe.Encrypt(c0, mu0, key.TLWE.Stdev, key.TLWE, rng)

	for _, bit := range []int32{0, 1} {
		g := NewSample(testN, testK, testParams)
		Encrypt(g, bit, key.TLWE.Stdev, key, rng)
		fg := g.ToHalf(proc)

		sc := NewScratch(testN, testK, testParams)
		dst := tlwe.NewSample(testN, testK)
		sc.CMux(dst, fg, c1, c0)

		phase := torus.NewTorusPoly(testN)
		tlwe.Phase(phase, dst, key.TLWE)
		want := int32(2)
		if bit == 1 {
			want = 6
		}
		if got := torus.ModSwitchFromTorus32(phase.Coefs[0], msize); got != want {
			t.Fatalf("cmux(bit=%d) = %d, want %d", bit, got, want)
		}
	}
}

func TestCMuxRotate(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-rotate"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	proc := torus.NewProcessor(testN)
	const msize = 8
	const shift = 11

	mu := torus.NewTorusPoly(testN)
	mu.Coefs[0] = torus.ModSwitchToTorus32(4, msize)

	for _, bit := range []int32{0, 1} {
		g := NewSample(testN, testK, testParams)
		Encrypt(g, bit, key.TLWE.Stdev, key, rng)
		fg := g.ToHalf(proc)

		acc := tlwe.NewSample(testN, testK)
		tlwe.Encrypt(acc, mu, key.TLWE.Stdev, key.TLWE, rng)
		sc := NewScratch(testN, testK, testParams)
		sc.CMuxRotateInPlace(acc, fg, shift)

		phase := torus.NewTorusPoly(testN)
		tlwe.Phase(phase, acc, key.TLWE)
		wantIdx := 0
		if bit == 1 {
			wantIdx = shift
		}
		if got := torus.ModSwitchFromTorus32(phase.Coefs[wantIdx], msize); got != 4 {
			t.Fatalf("bit=%d: message not found at coef %d (got %d)", bit, wantIdx, got)
		}
	}
}

func TestOffsetMatchesDefinition(t *testing.T) {
	p := Params{Levels: 2, BaseLog: 8}
	// offset = sum_j (Bg/2) * 2^(32 - j*Bgbit) for j=1..l
	want := uint32(128)<<24 + uint32(128)<<16
	if got := p.Offset(); got != want {
		t.Fatalf("offset = %#x, want %#x", got, want)
	}
}
