package torus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randIntPoly(rng *rand.Rand, n int, bound int32) *IntPoly {
	p := NewIntPoly(n)
	for i := range p.Coefs {
		p.Coefs[i] = rng.Int31n(2*bound+1) - bound
	}
	return p
}

func randTorusPoly(rng *rand.Rand, n int) *TorusPoly {
	p := NewTorusPoly(n)
	for i := range p.Coefs {
		p.Coefs[i] = rng.Uint32()
	}
	return p
}

func TestModSwitchRoundTrip(t *testing.T) {
	for _, msize := range []int32{2, 4, 8, 16, 1024} {
		for mu := int32(0); mu < msize; mu++ {
			phase := ModSwitchToTorus32(mu, msize)
			got := ModSwitchFromTorus32(phase, msize)
			if got != mu {
				t.Fatalf("ModSwitch round trip failed: msize=%d mu=%d got=%d", msize, mu, got)
			}
		}
	}
}

func TestModSwitchToleratesNoise(t *testing.T) {
	// A phase perturbed by less than half a slot must still decode.
	const msize = 8
	slot := uint32(1) << 29 // 2^32 / 8
	for mu := int32(0); mu < msize; mu++ {
		phase := ModSwitchToTorus32(mu, msize)
		if got := ModSwitchFromTorus32(phase+slot/2-1, msize); got != mu {
			t.Fatalf("mu=%d +noise decoded to %d", mu, got)
		}
		if got := ModSwitchFromTorus32(phase-slot/2+1, msize); got != mu {
			t.Fatalf("mu=%d -noise decoded to %d", mu, got)
		}
	}
}

func TestMulByXaiMinusOneMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 16
	for a := 0; a < 2*n; a++ {
		src := randTorusPoly(rng, n)
		got := NewTorusPoly(n)
		got.MulByXaiMinusOne(a, src)

		// Reference: multiply by the explicit polynomial X^a - 1.
		xa := NewIntPoly(n)
		if a < n {
			xa.Coefs[a] += 1
		} else {
			xa.Coefs[a-n] -= 1
		}
		xa.Coefs[0] -= 1
		want := NewTorusPoly(n)
		MulNaive(want, xa, src)
		for i := range want.Coefs {
			if got.Coefs[i] != want.Coefs[i] {
				t.Fatalf("a=%d coef %d: got %d want %d", a, i, got.Coefs[i], want.Coefs[i])
			}
		}
	}
}

func TestMulByXaiMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 16
	for a := 0; a < 2*n; a++ {
		src := randTorusPoly(rng, n)
		got := NewTorusPoly(n)
		got.MulByXai(a, src)

		xa := NewIntPoly(n)
		if a < n {
			xa.Coefs[a] += 1
		} else {
			xa.Coefs[a-n] -= 1
		}
		want := NewTorusPoly(n)
		MulNaive(want, xa, src)
		for i := range want.Coefs {
			if got.Coefs[i] != want.Coefs[i] {
				t.Fatalf("a=%d coef %d: got %d want %d", a, i, got.Coefs[i], want.Coefs[i])
			}
		}
	}
}

func TestMulByXai2NIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 32
	src := randTorusPoly(rng, n)
	tmp := NewTorusPoly(n)
	got := NewTorusPoly(n)
	tmp.MulByXai(n/2, src)
	got.MulByXai(2*n-n/2, tmp) // X^(2N) = 1
	for i := range src.Coefs {
		if got.Coefs[i] != src.Coefs[i] {
			t.Fatalf("X^2N should be identity, coef %d differs", i)
		}
	}
}

// TestHalfRoundTrip: folding a torus polynomial and inverting it into a zero
// destination recovers every coefficient exactly.
func TestHalfRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 256
	proc := NewProcessor(n)
	src := randTorusPoly(rng, n)
	f := NewHalfPoly(n / 2)
	proc.HalfFoldTorus(f, src)
	back := NewTorusPoly(n)
	proc.AddHalfToTorus(back, f)
	for i := range src.Coefs {
		if back.Coefs[i] != src.Coefs[i] {
			t.Fatalf("round trip coef %d: got %d want %d", i, back.Coefs[i], src.Coefs[i])
		}
	}
}

func TestAddHalfToTorusAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 64
	proc := NewProcessor(n)
	a := randIntPoly(rng, n, 100)
	b := randTorusPoly(rng, n)
	base := randTorusPoly(rng, n)

	fa := NewHalfPoly(n / 2)
	fb := NewHalfPoly(n / 2)
	fc := NewHalfPoly(n / 2)
	proc.HalfFoldInt(fa, a)
	proc.HalfFoldTorus(fb, b)
	fc.MulAccTo(fa, fb)

	got := NewTorusPoly(n)
	got.Copy(base)
	proc.AddHalfToTorus(got, fc)

	want := NewTorusPoly(n)
	want.Copy(base)
	AddMulNaive(want, a, b)
	for i := range want.Coefs {
		if got.Coefs[i] != want.Coefs[i] {
			t.Fatalf("coef %d: got %d want %d", i, got.Coefs[i], want.Coefs[i])
		}
	}
}

// TestMulDistributesOverAddition is a property-based check that the
// negacyclic product distributes over torus addition.
func TestMulDistributesOverAddition(t *testing.T) {
	const n = 32
	f := func(aSeed, bSeed, cSeed int64) bool {
		rng := rand.New(rand.NewSource(aSeed))
		a := randIntPoly(rng, n, 64)
		rng = rand.New(rand.NewSource(bSeed))
		b := randTorusPoly(rng, n)
		rng = rand.New(rand.NewSource(cSeed))
		c := randTorusPoly(rng, n)

		sum := NewTorusPoly(n)
		sum.Copy(b)
		sum.AddTo(c)

		left := NewTorusPoly(n)
		MulNaive(left, a, sum)

		rb := NewTorusPoly(n)
		rc := NewTorusPoly(n)
		MulNaive(rb, a, b)
		MulNaive(rc, a, c)
		rb.AddTo(rc)

		for i := range left.Coefs {
			if left.Coefs[i] != rb.Coefs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPolyMulNaive1024(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 1024
	a := randIntPoly(rng, n, 512)
	p := randTorusPoly(rng, n)
	out := NewTorusPoly(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulNaive(out, a, p)
	}
}

func BenchmarkPolyMulHalf1024(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const n = 1024
	proc := NewProcessor(n)
	a := randIntPoly(rng, n, 512)
	p := randTorusPoly(rng, n)
	out := NewTorusPoly(n)
	fa := NewHalfPoly(n / 2)
	fb := NewHalfPoly(n / 2)
	fc := NewHalfPoly(n / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.HalfFoldInt(fa, a)
		proc.HalfFoldTorus(fb, p)
		fc.Clear()
		fc.MulAccTo(fa, fb)
		out.Clear()
		proc.AddHalfToTorus(out, fc)
	}
}

// TestSwitchRowsRejectsBadShapes: the exported kernel refuses segments out
// of order, a row past the end of the key and a short accumulator instead
// of reading or writing beyond them.
func TestSwitchRowsRejectsBadShapes(t *testing.T) {
	acc, key := make([]Torus32, 2*8), make([]Torus32, 3*8)
	rows := []uint32{0, 8, 16}
	for name, call := range map[string]func(){
		"row past key":      func() { SwitchRows(acc, key, []uint32{17}, []uint32{1, 1}, 2, 8) },
		"ends out of order": func() { SwitchRows(acc, key, rows, []uint32{2, 1}, 2, 8) },
		"ends past rows":    func() { SwitchRows(acc, key, rows, []uint32{2, 4}, 2, 8) },
		"short acc":         func() { SwitchRows(acc[:15], key, rows, []uint32{1, 3}, 2, 8) },
		"ragged segments":   func() { SwitchRows(acc, key, rows, []uint32{1, 2, 3}, 2, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SwitchRows did not panic", name)
				}
			}()
			call()
		}()
	}
	SwitchRows(acc, key, rows, []uint32{1, 3}, 2, 8)
}
