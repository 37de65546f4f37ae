package tgsw

import (
	"fmt"
	"math"
	"testing"

	"pytfhe/internal/params"
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

// benchRing is one parameter set's ring geometry for the kernel benchmarks.
type benchRing struct {
	name string
	n, k int
	p    Params
}

// benchRings are the Test parameters the unit tests use and the Default128
// ring the paper's gates run on.
func benchRings() []benchRing {
	var rings []benchRing
	for _, gp := range []*params.GateParams{params.Test(), params.Default128()} {
		rings = append(rings, benchRing{gp.Name, gp.PolyDegree, gp.RingCount,
			Params{Levels: gp.DecompLevels, BaseLog: gp.DecompBaseLog}})
	}
	return rings
}

// cloneHalf returns a deep copy of g in memory of its own.
func cloneHalf(g *HalfSample) *HalfSample {
	return &HalfSample{K: g.K, Params: g.Params, Flat: append([]float64(nil), g.Flat...)}
}

// benchBatchSetup returns a half-domain TGSW encryption of 1 on ring r and
// a sampler of fresh TLWE encryptions of random messages under its key.
func benchBatchSetup(b *testing.B, r benchRing) (*HalfSample, func() *tlwe.Sample) {
	b.Helper()
	rng := trand.NewSeeded([]byte("tgsw-bench"))
	key := NewKey(r.n, r.k, math.Pow(2, -30), r.p, rng)
	g := NewSample(r.n, r.k, r.p)
	Encrypt(g, 1, key.TLWE.Stdev, key, rng)
	fresh := func() *tlwe.Sample {
		mu := torus.NewTorusPoly(r.n)
		for i := range mu.Coefs {
			mu.Coefs[i] = rng.Torus32()
		}
		s := tlwe.NewSample(r.n, r.k)
		tlwe.Encrypt(s, mu, key.TLWE.Stdev, key.TLWE, rng)
		return s
	}
	return g.ToHalf(torus.NewProcessor(r.n)), fresh
}

func BenchmarkKernelExternalProductAdd(b *testing.B) {
	for _, r := range benchRings() {
		b.Run(r.name, func(b *testing.B) {
			fg, fresh := benchBatchSetup(b, r)
			src := fresh()
			acc := tlwe.NewSample(r.n, r.k)
			sc := NewScratch(r.n, r.k, r.p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.ExternalProductAdd(acc, fg, src)
			}
		})
	}
}

// BenchmarkKernelCMuxRotate measures one CMux rotation through the single
// entry point and through the batched one at growing batch sizes; the
// per-op metric is one rotation in both cases, so the gap is what streaming
// the TGSW sample once per batch saves. single rotates against one
// cache-hot sample. At Default128, streamed cycles through as many distinct
// samples as a bootstrapping key has entries (n = 630, 62 MB), as a blind
// rotation does, so n × streamed is what a bootstrap's rotations cost.
func BenchmarkKernelCMuxRotate(b *testing.B) {
	for _, r := range benchRings() {
		b.Run(r.name, func(b *testing.B) {
			hg, fresh := benchBatchSetup(b, r)
			b.Run("single", func(b *testing.B) {
				sc := NewScratch(r.n, r.k, r.p)
				acc := fresh()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sc.CMuxRotateInPlace(acc, hg, 1+i%(2*r.n-1))
				}
			})
			if r.name == params.Default128().Name {
				b.Run("streamed", func(b *testing.B) {
					bk := make([]*HalfSample, params.Default128().LWEDimension)
					for i := range bk {
						bk[i] = cloneHalf(hg)
					}
					sc := NewScratch(r.n, r.k, r.p)
					acc := fresh()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sc.CMuxRotateInPlace(acc, bk[i%len(bk)], 1+i%(2*r.n-1))
					}
				})
			}
			for _, size := range []int{4, 16, 64} {
				b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
					bs := NewBatchScratch(r.n, r.k, r.p, size)
					accs := make([]*tlwe.Sample, size)
					as := make([]int, size)
					for m := range accs {
						accs[m] = fresh()
						as[m] = 1 + m%(2*r.n-1)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i += size {
						bs.CMuxRotateBatchHalf(accs, hg, as)
					}
				})
			}
		})
	}
}
