package lwe

import (
	"fmt"
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

// TestApplyBatchMatchesApply: ApplyBatch on batches of 0, 1, 3 and 16
// gives every member Apply's result bit for bit — mask, body and Variance
// — with one scratch reused across batch sizes. Member 0 of each batch is
// all-zero-digit (every coefficient rounds to zero, so no row is
// subtracted); the others are random.
func TestApplyBatchMatchesApply(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-ks-batch"))
	p := params.Test()
	inKey := NewKey(p.ExtractedLWEDimension(), p.TLWEStdev, rng)
	outKey := NewKey(p.LWEDimension, p.LWEStdev, rng)
	ks := NewSwitchKey(inKey, outKey, p.KSLevels, p.KSBaseLog, p.LWEStdev, rng)
	var sc SwitchScratch
	for _, b := range []int{0, 1, 3, 16, 3} {
		src, got := make([]*Sample, b), make([]*Sample, b)
		for m := range src {
			src[m], got[m] = NewSample(inKey.N), NewSample(outKey.N)
			got[m].Variance = -1
			src[m].B = rng.Torus32()
			for i := range src[m].A {
				if m == 0 {
					src[m].A[i] = rng.Torus32() & 0x7fff // below the rounding bit
				} else {
					src[m].A[i] = rng.Torus32()
				}
			}
		}
		if err := ks.ApplyBatch(got, src, &sc); err != nil {
			t.Fatal(err)
		}
		for m := range src {
			want := NewSample(outKey.N)
			if err := ks.Apply(want, src[m]); err != nil {
				t.Fatal(err)
			}
			if m == 0 && (want.B != src[m].B || want.Variance != 0) {
				t.Fatalf("b=%d: all-zero-digit member changed: body %#x (src %#x), variance %g", b, want.B, src[m].B, want.Variance)
			}
			for i := range want.A {
				if got[m].A[i] != want.A[i] {
					t.Fatalf("b=%d member %d mask %d: batch %#x, Apply %#x", b, m, i, got[m].A[i], want.A[i])
				}
			}
			if got[m].B != want.B || got[m].Variance != want.Variance {
				t.Fatalf("b=%d member %d: batch (%#x, %g), Apply (%#x, %g)", b, m, got[m].B, got[m].Variance, want.B, want.Variance)
			}
		}
	}
}

// TestKeySwitchRejectsMalformedKey: a key whose flat rows do not match its
// shape, or a batch whose slices disagree, is an error, never an index out
// of range.
func TestKeySwitchRejectsMalformedKey(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-ks-malformed"))
	inKey := NewKey(64, 0, rng)
	outKey := NewKey(32, 0, rng)
	good := NewSwitchKey(inKey, outKey, 4, 2, 0, rng)
	in, out := NewSample(64), NewSample(32)
	var sc SwitchScratch
	for name, ks := range map[string]*SwitchKey{
		"truncated": {NIn: 64, NOut: 32, Levels: 4, BaseLog: 2, Flat: good.Flat[:len(good.Flat)-1]},
		"oversized": {NIn: 64, NOut: 32, Levels: 4, BaseLog: 2, Flat: append(good.Flat[:len(good.Flat):len(good.Flat)], 0)},
		"empty":     {NIn: 64, NOut: 32, Levels: 4, BaseLog: 2},
		"levels":    {NIn: 64, NOut: 32, Levels: 5, BaseLog: 2, Flat: good.Flat},
	} {
		if err := ks.Apply(out, in); err == nil {
			t.Errorf("%s: Apply accepted the key", name)
		}
		if err := ks.ApplyBatch([]*Sample{out}, []*Sample{in}, &sc); err == nil {
			t.Errorf("%s: ApplyBatch accepted the key", name)
		}
	}
	if err := good.ApplyBatch([]*Sample{out}, []*Sample{in, in}, &sc); err == nil {
		t.Error("ApplyBatch accepted mismatched slices")
	}
	if err := good.ApplyBatch([]*Sample{NewSample(31)}, []*Sample{in}, &sc); err == nil {
		t.Error("ApplyBatch accepted a wrong output dimension")
	}
	if got := SwitchKeyWords(64, 32, 4, 40); got != -1 {
		t.Errorf("SwitchKeyWords with basebit 40 = %d, want -1", got)
	}
	if got := SwitchKeyWords(1<<20, 1023, 8, 4); got != -1 {
		t.Errorf("SwitchKeyWords past 2^32 words = %d, want -1", got)
	}
	if got, want := SwitchKeyWords(1024, 630, 8, 2), 1024*8*3*632; got != want {
		t.Errorf("SwitchKeyWords at Default128 = %d, want %d", got, want)
	}
}

// ksBench builds the Default128 key switch: an extracted N·k = 1024 sample
// to the n = 630 gate key with t = 8 digits of 2 bits, i.e. up to 8 192
// row subtractions of 631 words per member, and count distinct inputs.
func ksBench(b *testing.B, count int) (*SwitchKey, []*Sample, []*Sample) {
	b.Helper()
	p := params.Default128()
	rng := trand.NewSeeded([]byte("lwe-ks-bench"))
	inKey := NewKey(p.ExtractedLWEDimension(), p.TLWEStdev, rng)
	outKey := NewKey(p.LWEDimension, p.LWEStdev, rng)
	ks := NewSwitchKey(inKey, outKey, p.KSLevels, p.KSBaseLog, p.LWEStdev, rng)
	in, out := make([]*Sample, count), make([]*Sample, count)
	for m := range in {
		in[m], out[m] = NewSample(inKey.N), NewSample(outKey.N)
		Encrypt(in[m], torus.ModSwitchToTorus32(int32(m), 8), inKey.Stdev, inKey, rng)
	}
	return ks, in, out
}

// BenchmarkKernelKeySwitch measures one Default128 key switch through
// Apply. hot repeats one input, so the rows its digits select stay as
// cached as 15 MB can be; streamed cycles through 64 distinct inputs, as a
// run of gates does.
func BenchmarkKernelKeySwitch(b *testing.B) {
	for _, tc := range []struct {
		name   string
		inputs int
	}{{"hot", 1}, {"streamed", 64}} {
		b.Run(tc.name, func(b *testing.B) {
			ks, in, out := ksBench(b, tc.inputs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := i % tc.inputs
				if err := ks.Apply(out[m], in[m]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelKeySwitchBatch measures ApplyBatch at batch 1 and 16 on
// distinct inputs; ns/op is per member, so the gap between the two is what
// loading each row group once per batch saves.
func BenchmarkKernelKeySwitchBatch(b *testing.B) {
	for _, size := range []int{1, 16} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			const batches = 4
			ks, in, out := ksBench(b, size*batches)
			var sc SwitchScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				k := (i / size % batches) * size
				if err := ks.ApplyBatch(out[k:k+size], in[k:k+size], &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestKeySwitchAllocationFree: Apply never allocates, and ApplyBatch does
// not once its scratch has grown to the batch.
func TestKeySwitchAllocationFree(t *testing.T) {
	rng := trand.NewSeeded([]byte("lwe-ks-allocs"))
	p := params.Test()
	inKey := NewKey(p.ExtractedLWEDimension(), p.TLWEStdev, rng)
	outKey := NewKey(p.LWEDimension, p.LWEStdev, rng)
	ks := NewSwitchKey(inKey, outKey, p.KSLevels, p.KSBaseLog, p.LWEStdev, rng)
	src, dst := make([]*Sample, 16), make([]*Sample, 16)
	for m := range src {
		src[m], dst[m] = NewSample(inKey.N), NewSample(outKey.N)
		Encrypt(src[m], torus.ModSwitchToTorus32(int32(m), 8), inKey.Stdev, inKey, rng)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := ks.Apply(dst[0], src[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Apply: %v allocations per call", n)
	}
	var sc SwitchScratch
	if n := testing.AllocsPerRun(10, func() {
		if err := ks.ApplyBatch(dst, src, &sc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ApplyBatch: %v allocations per call after the first", n)
	}
}

// BenchmarkKernelEncrypt times one LWE encryption at n = 630, the
// Default128 LWE dimension: one Gaussian body and n uniform mask words.
func BenchmarkKernelEncrypt(b *testing.B) {
	p := params.Default128()
	rng := trand.NewSeeded([]byte("lwe-encrypt-bench"))
	key := NewKey(p.LWEDimension, p.LWEStdev, rng)
	s := NewSample(key.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encrypt(s, torus.ModSwitchToTorus32(int32(i%8), 8), key.Stdev, key, rng)
	}
}
