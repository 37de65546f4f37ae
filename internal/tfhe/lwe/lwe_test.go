package lwe

import (
	"math"
	"testing"
	"testing/quick"

	"pytfhe/internal/params"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-roundtrip"))
	key := NewKey(300, math.Pow(2, -18), rng)
	const msize = 8
	for mu := int32(0); mu < msize; mu++ {
		s := NewSample(key.N)
		Encrypt(s, torus.ModSwitchToTorus32(mu, msize), key.Stdev, key, rng)
		if got := Decrypt(s, key, msize); got != mu {
			t.Fatalf("decrypt(%d) = %d", mu, got)
		}
	}
}

func TestHomomorphicAddition(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-add"))
	key := NewKey(200, math.Pow(2, -20), rng)
	const msize = 16
	for a := int32(0); a < 4; a++ {
		for b := int32(0); b < 4; b++ {
			sa := NewSample(key.N)
			sb := NewSample(key.N)
			Encrypt(sa, torus.ModSwitchToTorus32(a, msize), key.Stdev, key, rng)
			Encrypt(sb, torus.ModSwitchToTorus32(b, msize), key.Stdev, key, rng)
			sa.AddTo(sb)
			if got := Decrypt(sa, key, msize); got != a+b {
				t.Fatalf("%d+%d decrypted to %d", a, b, got)
			}
		}
	}
}

func TestHomomorphicScalarMul(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-scalar"))
	key := NewKey(200, math.Pow(2, -20), rng)
	const msize = 32
	s := NewSample(key.N)
	Encrypt(s, torus.ModSwitchToTorus32(3, msize), key.Stdev, key, rng)
	out := NewSample(key.N)
	out.AddMulTo(5, s)
	if got := Decrypt(out, key, msize); got != 15 {
		t.Fatalf("5*3 decrypted to %d", got)
	}
}

func TestNegate(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-neg"))
	key := NewKey(128, math.Pow(2, -20), rng)
	const msize = 8
	s := NewSample(key.N)
	Encrypt(s, torus.ModSwitchToTorus32(3, msize), key.Stdev, key, rng)
	s.Negate()
	if got := Decrypt(s, key, msize); got != 5 { // -3 mod 8
		t.Fatalf("-3 mod 8 decrypted to %d", got)
	}
}

func TestNoiselessTrivialDecryptsUnderAnyKey(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-trivial"))
	f := func(seed uint32) bool {
		key := NewKey(64, 0, trand.NewSeeded([]byte{byte(seed), byte(seed >> 8), byte(seed >> 16), byte(seed >> 24)}))
		s := NewSample(key.N)
		s.NoiselessTrivial(torus.ModSwitchToTorus32(5, 8))
		return Decrypt(s, key, 8) == 5
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

func TestKeySwitch(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-ks"))
	inKey := NewKey(512, math.Pow(2, -25), rng)
	outKey := NewKey(128, math.Pow(2, -18), rng)
	ks := NewSwitchKey(inKey, outKey, 8, 2, math.Pow(2, -18), rng)
	const msize = 8
	for mu := int32(0); mu < msize; mu++ {
		in := NewSample(inKey.N)
		Encrypt(in, torus.ModSwitchToTorus32(mu, msize), inKey.Stdev, inKey, rng)
		out := NewSample(outKey.N)
		if err := ks.Apply(out, in); err != nil {
			t.Fatal(err)
		}
		if got := Decrypt(out, outKey, msize); got != mu {
			t.Fatalf("key switch of %d decrypted to %d", mu, got)
		}
	}
}

func TestKeySwitchDimensionMismatch(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-ks-dim"))
	inKey := NewKey(64, 0, rng)
	outKey := NewKey(32, 0, rng)
	ks := NewSwitchKey(inKey, outKey, 4, 2, 0, rng)
	if err := ks.Apply(NewSample(32), NewSample(63)); err == nil {
		t.Fatal("expected input dimension error")
	}
	if err := ks.Apply(NewSample(33), NewSample(64)); err == nil {
		t.Fatal("expected output dimension error")
	}
}

func TestVarianceTracking(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-var"))
	key := NewKey(64, math.Pow(2, -15), rng)
	a := NewSample(key.N)
	b := NewSample(key.N)
	Encrypt(a, 0, key.Stdev, key, rng)
	Encrypt(b, 0, key.Stdev, key, rng)
	v := a.Variance
	a.AddTo(b)
	if a.Variance <= v {
		t.Fatal("variance should grow under addition")
	}
	a.Clear()
	if a.Variance != 0 {
		t.Fatal("clear should reset variance")
	}
}

// BenchmarkKernelKeySwitch measures one key switch at the Default128
// dimensions: an extracted N·k = 1024 sample to the n = 630 gate key with
// t = 8 digits of 2 bits, i.e. 8 192 row subtractions of 631 words.
func BenchmarkKernelKeySwitch(b *testing.B) {
	p := params.Default128()
	rng := trand.NewSeeded([]byte("lwe-ks-bench"))
	inKey := NewKey(p.ExtractedLWEDimension(), p.TLWEStdev, rng)
	outKey := NewKey(p.LWEDimension, p.LWEStdev, rng)
	ks := NewSwitchKey(inKey, outKey, p.KSLevels, p.KSBaseLog, p.LWEStdev, rng)
	in := NewSample(inKey.N)
	Encrypt(in, torus.ModSwitchToTorus32(1, 8), inKey.Stdev, inKey, rng)
	out := NewSample(outKey.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ks.Apply(out, in); err != nil {
			b.Fatal(err)
		}
	}
}
