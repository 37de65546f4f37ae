package tgsw

import (
	"fmt"
	"math"
	"testing"

	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// naiveCMuxRotate is the exact oracle of the blind-rotation step
// acc += g ⊡ ((X^a - 1)·acc), computed in the coefficient domain with
// torus.AddMulNaive against the untransformed TGSW sample g.
func naiveCMuxRotate(acc *tlwe.Sample, g *Sample, a int) {
	n, k := acc.N(), acc.K
	diff := tlwe.NewSample(n, k)
	diff.MulByXaiMinusOne(a, acc)
	decomp := make([]*torus.IntPoly, (k+1)*g.Params.Levels)
	for i := range decomp {
		decomp[i] = torus.NewIntPoly(n)
	}
	DecomposeTLWE(decomp, diff, g.Params)
	for u, d := range decomp {
		for c := range acc.A {
			torus.AddMulNaive(acc.A[c], d, g.Rows[u].A[c])
		}
	}
	acc.Variance += diff.Variance
}

// TestCMuxRotateMatchesNaive verifies that the kernel — through both its
// single and its batched entry point — equals the exact coefficient-domain
// oracle coefficient for coefficient, across batch sizes.
func TestCMuxRotateMatchesNaive(t *testing.T) {
	rng := trand.NewSeeded([]byte("tgsw-batch"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)

	g := NewSample(testN, testK, testParams)
	Encrypt(g, 1, key.TLWE.Stdev, key, rng)
	hg := g.ToHalf(torus.NewProcessor(testN))

	sc := NewScratch(testN, testK, testParams)
	bs := NewBatchScratch(testN, testK, testParams, 2)

	for _, b := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("B%d", b), func(t *testing.T) {
			want := make([]*tlwe.Sample, b)
			single := make([]*tlwe.Sample, b)
			batched := make([]*tlwe.Sample, b)
			as := make([]int, b)
			for m := 0; m < b; m++ {
				mu := torus.NewTorusPoly(testN)
				for i := range mu.Coefs {
					mu.Coefs[i] = rng.Torus32()
				}
				want[m] = tlwe.NewSample(testN, testK)
				tlwe.Encrypt(want[m], mu, key.TLWE.Stdev, key.TLWE, rng)
				single[m] = tlwe.NewSample(testN, testK)
				single[m].Copy(want[m])
				batched[m] = tlwe.NewSample(testN, testK)
				batched[m].Copy(want[m])
				as[m] = 1 + int(rng.Torus32()%uint32(2*testN-1)) // in [1, 2N)
			}

			for m := 0; m < b; m++ {
				naiveCMuxRotate(want[m], g, as[m])
				sc.CMuxRotateInPlace(single[m], hg, as[m])
			}
			bs.CMuxRotateBatchHalf(batched, hg, as)

			for m := 0; m < b; m++ {
				for c := range want[m].A {
					for j, w := range want[m].A[c].Coefs {
						if got := single[m].A[c].Coefs[j]; got != w {
							t.Fatalf("member %d poly %d coef %d: single %#x, naive %#x", m, c, j, got, w)
						}
						if got := batched[m].A[c].Coefs[j]; got != w {
							t.Fatalf("member %d poly %d coef %d: batch %#x, naive %#x", m, c, j, got, w)
						}
					}
				}
				if want[m].Variance != single[m].Variance || want[m].Variance != batched[m].Variance {
					t.Fatalf("member %d: variance single %g batch %g, naive %g",
						m, single[m].Variance, batched[m].Variance, want[m].Variance)
				}
			}
		})
	}
}

func benchBatchSetup(b *testing.B) (*HalfSample, *trand.Source, *tlwe.Key) {
	b.Helper()
	rng := trand.NewSeeded([]byte("tgsw-bench"))
	key := NewKey(testN, testK, math.Pow(2, -30), testParams, rng)
	g := NewSample(testN, testK, testParams)
	Encrypt(g, 1, key.TLWE.Stdev, key, rng)
	return g.ToHalf(torus.NewProcessor(testN)), rng, key.TLWE
}

func BenchmarkKernelExternalProductAdd(b *testing.B) {
	fg, rng, tk := benchBatchSetup(b)
	src := tlwe.NewSample(testN, testK)
	mu := torus.NewTorusPoly(testN)
	for i := range mu.Coefs {
		mu.Coefs[i] = rng.Torus32()
	}
	tlwe.Encrypt(src, mu, tk.Stdev, tk, rng)
	acc := tlwe.NewSample(testN, testK)
	sc := NewScratch(testN, testK, testParams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ExternalProductAdd(acc, fg, src)
	}
}

// BenchmarkKernelCMuxRotate measures one CMux rotation through the single
// entry point and through the batched one at growing batch sizes; the
// per-op metric is one rotation in both cases, so the gap is what streaming
// the TGSW sample once per batch saves.
func BenchmarkKernelCMuxRotate(b *testing.B) {
	hg, rng, tk := benchBatchSetup(b)
	mkAcc := func() *tlwe.Sample {
		mu := torus.NewTorusPoly(testN)
		for i := range mu.Coefs {
			mu.Coefs[i] = rng.Torus32()
		}
		s := tlwe.NewSample(testN, testK)
		tlwe.Encrypt(s, mu, tk.Stdev, tk, rng)
		return s
	}

	b.Run("single", func(b *testing.B) {
		sc := NewScratch(testN, testK, testParams)
		acc := mkAcc()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.CMuxRotateInPlace(acc, hg, 1+i%(2*testN-1))
		}
	})
	for _, size := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			bs := NewBatchScratch(testN, testK, testParams, size)
			accs := make([]*tlwe.Sample, size)
			as := make([]int, size)
			for m := range accs {
				accs[m] = mkAcc()
				as[m] = 1 + m%(2*testN-1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				bs.CMuxRotateBatchHalf(accs, hg, as)
			}
		})
	}
}
