package torus

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The external product's two fused entry points, HalfDigits and
// MulAccRows, held on every tier this CPU runs to the kernels they replace,
// composed on the same tier: GadgetDigit then the fold and transform per
// level, and MulAccPairTo over the row pairs (MulAccTo over an odd last
// row) from a cleared accumulator. Every float must agree bit for bit.

// gadgetOffset is tgsw.Params.Offset: Bg/2 at every level's digit position.
func gadgetOffset(levels int, baseLog uint) uint32 {
	var offset uint32
	for j := 1; j <= levels; j++ {
		offset += uint32(1) << (baseLog - 1) << (32 - uint(j)*baseLog)
	}
	return offset
}

// digitTestPoly returns torus coefficients that cover the extremes and,
// for every level, the values one step either side of a digit boundary:
// c + offset a multiple of 2^shift, then one below and one above it. The
// rest are random.
func digitTestPoly(rng *rand.Rand, n, levels int, offset uint32, baseLog uint) *TorusPoly {
	vals := []Torus32{0, 1<<31 - 1, 1 << 31, 1<<32 - 1}
	for j := 0; j < levels; j++ {
		shift := 32 - uint(j+1)*baseLog
		for range 4 {
			v := rng.Uint32()>>shift<<shift - offset
			vals = append(vals, v-1, v, v+1)
		}
	}
	p := randTorusPoly(rng, n)
	for i := range p.Coefs {
		if rng.Intn(2) == 0 {
			p.Coefs[i] = vals[rng.Intn(len(vals))]
		}
	}
	return p
}

// fusedShapes are the gadget shapes the tests cover: l = 1…4, with
// Bgbit 32/l at l*Bgbit = 32, plus the parameter sets' l = 3, Bgbit = 7.
var fusedShapes = []struct {
	levels  int
	baseLog uint
}{{1, 32}, {1, 10}, {2, 16}, {2, 9}, {3, 7}, {3, 10}, {4, 8}, {4, 6}}

func requireTier(t *testing.T, tier kernelTier) {
	t.Helper()
	if tier.missing != "" {
		t.Skip("CPU lacks " + tier.missing)
	}
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: fused %v (%#x), composed %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestHalfDigitsMatchesComposed(t *testing.T) {
	for _, tier := range kernelTiers {
		t.Run(tier.name, func(t *testing.T) {
			requireTier(t, tier)
			for n := 4; n <= 2048; n *= 2 {
				p := NewProcessor(n)
				rng := rand.New(rand.NewSource(int64(n)))
				for _, sh := range fusedShapes {
					offset := gadgetOffset(sh.levels, sh.baseLog)
					src := digitTestPoly(rng, n, sh.levels, offset, sh.baseLog)
					got := make([]float64, sh.levels*n)
					for i := range got {
						got[i] = math.NaN() // every float must be written
					}
					tier.halfDigits(p, got, src, offset, sh.baseLog)
					digits, want := NewIntPoly(n), NewHalfPoly(n/2)
					for j := 0; j < sh.levels; j++ {
						gadgetDigit(digits.Coefs, src.Coefs, offset, 32-uint(j+1)*sh.baseLog, sh.baseLog)
						tier.halfFoldInt(p, want, digits)
						f := HalfAt(got, n/2, j)
						what := fmt.Sprintf("N=%d l=%d Bgbit=%d level %d", n, sh.levels, sh.baseLog, j)
						sameFloats(t, what+" re", f.Re, want.Re)
						sameFloats(t, what+" im", f.Im, want.Im)
					}
				}
			}
		})
	}
}

func TestMulAccRowsMatchesComposed(t *testing.T) {
	for _, tier := range kernelTiers {
		t.Run(tier.name, func(t *testing.T) {
			requireTier(t, tier)
			for n := 4; n <= 2048; n *= 2 {
				p := NewProcessor(n)
				m := n / 2
				rng := rand.New(rand.NewSource(int64(n) + 1))
				for levels := 1; levels <= 4; levels++ {
					for k := 1; k <= 2; k++ {
						rows, outs := (k+1)*levels, k+1
						spec, key := make([]float64, rows*n), make([]float64, rows*outs*n)
						for i := range spec {
							spec[i] = math.Round(rng.NormFloat64() * 1e9)
						}
						for i := range key {
							key[i] = rng.NormFloat64() * 1e6
						}
						got := make([]float64, outs*n)
						for i := range got {
							got[i] = math.NaN() // the result must not depend on dst
						}
						tier.mulAccRows(p, got, spec, key)
						want := make([]float64, outs*n)
						for c := 0; c < outs; c++ {
							f := HalfAt(want, m, c)
							u := 0
							for ; u+1 < rows; u += 2 {
								a1, b1 := HalfAt(spec, m, u), HalfAt(key, m, u*outs+c)
								a2, b2 := HalfAt(spec, m, u+1), HalfAt(key, m, (u+1)*outs+c)
								tier.mulAccPair(&f, &a1, &b1, &a2, &b2)
							}
							if u < rows {
								a, b := HalfAt(spec, m, u), HalfAt(key, m, u*outs+c)
								tier.mulAcc(&f, &a, &b)
							}
						}
						sameFloats(t, fmt.Sprintf("N=%d l=%d k=%d", n, levels, k), got, want)
					}
				}
			}
		})
	}
}
