package tlwe

import (
	"math"
	"sync"
	"testing"

	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

const (
	testN = 256
	testK = 1
)

func TestEncryptPhaseRoundTrip(t *testing.T) {
	rng := trand.NewSeeded([]byte("tlwe-enc"))
	key := NewKey(testN, testK, math.Pow(2, -25), rng)
	const msize = 8
	mu := torus.NewTorusPoly(testN)
	for i := range mu.Coefs {
		mu.Coefs[i] = torus.ModSwitchToTorus32(int32(i%msize), msize)
	}
	s := NewSample(testN, testK)
	Encrypt(s, mu, key.Stdev, key, rng)
	phase := torus.NewTorusPoly(testN)
	Phase(phase, s, key)
	for i := range phase.Coefs {
		got := torus.ModSwitchFromTorus32(phase.Coefs[i], msize)
		if got != int32(i%msize) {
			t.Fatalf("coef %d decrypted to %d, want %d", i, got, i%msize)
		}
	}
}

func TestNoiselessTrivialPhase(t *testing.T) {
	rng := trand.NewSeeded([]byte("tlwe-trivial"))
	key := NewKey(testN, testK, 0, rng)
	mu := torus.NewTorusPoly(testN)
	mu.Coefs[3] = torus.ModSwitchToTorus32(1, 4)
	s := NewSample(testN, testK)
	s.NoiselessTrivial(mu)
	phase := torus.NewTorusPoly(testN)
	Phase(phase, s, key)
	for i := range phase.Coefs {
		if phase.Coefs[i] != mu.Coefs[i] {
			t.Fatalf("trivial phase coef %d = %d, want %d", i, phase.Coefs[i], mu.Coefs[i])
		}
	}
}

func TestHomomorphicPolyAddition(t *testing.T) {
	rng := trand.NewSeeded([]byte("tlwe-add"))
	key := NewKey(testN, testK, math.Pow(2, -25), rng)
	const msize = 16
	mua := torus.NewTorusPoly(testN)
	mub := torus.NewTorusPoly(testN)
	for i := range mua.Coefs {
		mua.Coefs[i] = torus.ModSwitchToTorus32(int32(i%4), msize)
		mub.Coefs[i] = torus.ModSwitchToTorus32(int32(i%3), msize)
	}
	sa := NewSample(testN, testK)
	sb := NewSample(testN, testK)
	Encrypt(sa, mua, key.Stdev, key, rng)
	Encrypt(sb, mub, key.Stdev, key, rng)
	sa.AddTo(sb)
	phase := torus.NewTorusPoly(testN)
	Phase(phase, sa, key)
	for i := range phase.Coefs {
		want := int32(i%4) + int32(i%3)
		if got := torus.ModSwitchFromTorus32(phase.Coefs[i], msize); got != want {
			t.Fatalf("coef %d: got %d want %d", i, got, want)
		}
	}
}

func TestSampleExtract(t *testing.T) {
	rng := trand.NewSeeded([]byte("tlwe-extract"))
	key := NewKey(testN, testK, math.Pow(2, -25), rng)
	extKey := key.ExtractLWEKey()
	if extKey.N != testN*testK {
		t.Fatalf("extracted key dimension = %d, want %d", extKey.N, testN*testK)
	}
	const msize = 8
	for msg := int32(0); msg < msize; msg++ {
		mu := torus.NewTorusPoly(testN)
		mu.Coefs[0] = torus.ModSwitchToTorus32(msg, msize)
		s := NewSample(testN, testK)
		Encrypt(s, mu, key.Stdev, key, rng)
		ext := lwe.NewSample(testN * testK)
		ExtractSample(ext, s)
		if got := lwe.Decrypt(ext, extKey, msize); got != msg {
			t.Fatalf("extracted coef0 decrypted to %d, want %d", got, msg)
		}
	}
}

func TestMulByXaiMinusOneSample(t *testing.T) {
	rng := trand.NewSeeded([]byte("tlwe-rot"))
	key := NewKey(testN, testK, math.Pow(2, -28), rng)
	const msize = 8
	mu := torus.NewTorusPoly(testN)
	mu.Coefs[0] = torus.ModSwitchToTorus32(2, msize)
	s := NewSample(testN, testK)
	Encrypt(s, mu, key.Stdev, key, rng)

	rot := NewSample(testN, testK)
	rot.MulByXaiMinusOne(5, s)
	rot.AddTo(s) // rot = X^5 * s

	phase := torus.NewTorusPoly(testN)
	Phase(phase, rot, key)
	if got := torus.ModSwitchFromTorus32(phase.Coefs[5], msize); got != 2 {
		t.Fatalf("rotated message at coef 5 = %d, want 2", got)
	}
	if got := torus.ModSwitchFromTorus32(phase.Coefs[0], msize); got != 0 {
		t.Fatalf("coef 0 after rotation = %d, want 0", got)
	}
}

// TestEncryptZeroMatchesNaive replays EncryptZero's random draws and checks
// the body against the exact coefficient-domain product: the transform path
// must equal b = e + Σ s_i·a_i coefficient for coefficient.
func TestEncryptZeroMatchesNaive(t *testing.T) {
	const k = 2
	key := NewKey(testN, k, math.Pow(2, -25), trand.NewSeeded([]byte("tlwe-naive-key")))
	got := NewSample(testN, k)
	enc := NewEncryptor(key)
	for round := 0; round < 3; round++ { // later rounds reuse enc's buffers
		seed := []byte{'t', byte(round)}
		enc.EncryptZero(got, key.Stdev, trand.NewSeeded(seed))

		rng := trand.NewSeeded(seed)
		want := torus.NewTorusPoly(testN)
		for j := range want.Coefs {
			want.Coefs[j] = trand.DoubleToTorus32(rng.Normal() * key.Stdev)
		}
		for i := 0; i < k; i++ {
			a := torus.NewTorusPoly(testN)
			for j := range a.Coefs {
				a.Coefs[j] = rng.Torus32()
			}
			torus.AddMulNaive(want, key.Polys[i], a)
			for j, c := range a.Coefs {
				if got.A[i].Coefs[j] != c {
					t.Fatalf("round %d: mask %d coef %d differs from the replayed draw", round, i, j)
				}
			}
		}
		for j, w := range want.Coefs {
			if got.B().Coefs[j] != w {
				t.Fatalf("round %d: body coef %d = %#x, naive %#x", round, j, got.B().Coefs[j], w)
			}
		}
	}
}

// TestEncryptConcurrent encrypts under one fresh key from several goroutines
// at once (run under -race): the first encryption builds the key's
// transform-domain form, which used to be an unsynchronised lazy cache.
func TestEncryptConcurrent(t *testing.T) {
	key := NewKey(testN, testK, math.Pow(2, -25), trand.NewSeeded([]byte("tlwe-race-key")))
	const msize = 8
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := trand.NewSeeded([]byte{'g', byte(g)})
			mu := torus.NewTorusPoly(testN)
			s := NewSample(testN, testK)
			phase := torus.NewTorusPoly(testN)
			for round := 0; round < 4; round++ {
				for i := range mu.Coefs {
					mu.Coefs[i] = torus.ModSwitchToTorus32(int32((i+g+round)%msize), msize)
				}
				Encrypt(s, mu, key.Stdev, key, rng)
				Phase(phase, s, key)
				for i := range phase.Coefs {
					if got := torus.ModSwitchFromTorus32(phase.Coefs[i], msize); got != int32((i+g+round)%msize) {
						t.Errorf("goroutine %d round %d coef %d decrypted to %d", g, round, i, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
