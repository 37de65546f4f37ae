package vipbench

import (
	"fmt"

	"pytfhe/internal/circuit"
	"pytfhe/internal/hdl"
)

// --- sorting / selection / dynamic programming ---

// BubbleSort sorts 8 unsigned bytes with a full compare-and-swap network.
func BubbleSort() Benchmark {
	const n = 8
	return Benchmark{
		Name:       "bubble-sort",
		Desc:       "bubble sort network over 8 bytes",
		InputBits:  repeatBits(8, n),
		OutputBits: repeatBits(8, n),
		Lower: func() *hdl.Module {
			m := hdl.New("bubble_sort")
			xs := make([]hdl.Bus, n)
			for i := range xs {
				xs[i] = m.InputBus(fmt.Sprintf("x%d", i), 8)
			}
			for pass := 0; pass < n-1; pass++ {
				for i := 0; i < n-1-pass; i++ {
					lo := m.MinU(xs[i], xs[i+1])
					hi := m.MaxU(xs[i], xs[i+1])
					xs[i], xs[i+1] = lo, hi
				}
			}
			for i, x := range xs {
				m.OutputBus(fmt.Sprintf("y%d", i), x)
			}
			return m
		},
		Ref: func(in []uint64) []uint64 {
			out := append([]uint64(nil), in...)
			for p := 0; p < n-1; p++ {
				for i := 0; i < n-1-p; i++ {
					if out[i] > out[i+1] {
						out[i], out[i+1] = out[i+1], out[i]
					}
				}
			}
			return out
		},
	}
}

// Kadane computes the maximum-subarray sum of 12 signed bytes (serial DP).
func Kadane() Benchmark {
	const n = 12
	const w = 12
	return Benchmark{
		Name:       "kadane",
		Desc:       "maximum subarray sum (serial dynamic program)",
		InputBits:  repeatBits(8, n),
		OutputBits: []int{w},
		Serial:     true,
		Lower: func() *hdl.Module {
			m := hdl.New("kadane")
			xs := make([]hdl.Bus, n)
			for i := range xs {
				xs[i] = m.SignExtend(m.InputBus(fmt.Sprintf("x%d", i), 8), w)
			}
			cur := xs[0]
			best := xs[0]
			for i := 1; i < n; i++ {
				cur = m.MaxS(xs[i], m.Add(cur, xs[i]))
				best = m.MaxS(best, cur)
			}
			m.OutputBus("best", best)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			cur := signExt(in[0], 8)
			best := cur
			for i := 1; i < n; i++ {
				x := signExt(in[i], 8)
				if cur+x > x {
					cur += x
				} else {
					cur = x
				}
				if cur > best {
					best = cur
				}
			}
			return []uint64{toRaw(best, w)}
		},
	}
}

// EditDistance computes the Levenshtein distance of two 8-character
// strings over a 4-bit alphabet.
func EditDistance() Benchmark {
	const n = 8
	const w = 5
	return Benchmark{
		Name:       "edit-distance",
		Desc:       "Levenshtein distance of two 8-char strings",
		InputBits:  repeatBits(4, 2*n),
		OutputBits: []int{w},
		Lower: func() *hdl.Module {
			m := hdl.New("edit_distance")
			a := make([]hdl.Bus, n)
			b := make([]hdl.Bus, n)
			for i := range a {
				a[i] = m.InputBus(fmt.Sprintf("a%d", i), 4)
			}
			for i := range b {
				b[i] = m.InputBus(fmt.Sprintf("b%d", i), 4)
			}
			// DP over the (n+1)x(n+1) grid.
			prev := make([]hdl.Bus, n+1)
			for j := range prev {
				prev[j] = m.ConstBus(uint64(j), w)
			}
			one := m.ConstBus(1, w)
			for i := 1; i <= n; i++ {
				cur := make([]hdl.Bus, n+1)
				cur[0] = m.ConstBus(uint64(i), w)
				for j := 1; j <= n; j++ {
					eq := m.Eq(a[i-1], b[j-1])
					subCost := m.Mux(eq, prev[j-1], m.Add(prev[j-1], one))
					del := m.Add(prev[j], one)
					ins := m.Add(cur[j-1], one)
					cur[j] = m.MinU(subCost, m.MinU(del, ins))
				}
				prev = cur
			}
			m.OutputBus("dist", prev[n])
			return m
		},
		Ref: func(in []uint64) []uint64 {
			a, b := in[:n], in[n:]
			prev := make([]uint64, n+1)
			for j := range prev {
				prev[j] = uint64(j)
			}
			for i := 1; i <= n; i++ {
				cur := make([]uint64, n+1)
				cur[0] = uint64(i)
				for j := 1; j <= n; j++ {
					sub := prev[j-1]
					if a[i-1] != b[j-1] {
						sub++
					}
					best := sub
					if prev[j]+1 < best {
						best = prev[j] + 1
					}
					if cur[j-1]+1 < best {
						best = cur[j-1] + 1
					}
					cur[j] = best
				}
				prev = cur
			}
			return []uint64{prev[n]}
		},
	}
}

// --- linear arithmetic ---

// DotProduct computes the inner product of two encrypted 8-vectors of
// signed bytes.
func DotProduct() Benchmark {
	const n = 8
	const w = 20
	return Benchmark{
		Name:       "dot-product",
		Desc:       "inner product of two encrypted 8-vectors",
		InputBits:  repeatBits(8, 2*n),
		OutputBits: []int{w},
		Lower: func() *hdl.Module {
			m := hdl.New("dot_product")
			as := make([]hdl.Bus, n)
			bs := make([]hdl.Bus, n)
			for i := 0; i < n; i++ {
				as[i] = m.InputBus(fmt.Sprintf("a%d", i), 8)
				bs[i] = m.InputBus(fmt.Sprintf("b%d", i), 8)
			}
			acc := m.ConstBus(0, w)
			for i := 0; i < n; i++ {
				prod := m.MulS(as[i], bs[i]) // 16 bits
				acc = m.Add(acc, m.SignExtend(prod, w))
			}
			m.OutputBus("dot", acc)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			var acc int64
			for i := 0; i < n; i++ {
				acc += signExt(in[2*i], 8) * signExt(in[2*i+1], 8)
			}
			return []uint64{toRaw(acc, w)}
		},
	}
}

// LinearRegression evaluates slope and intercept of a least-squares fit of
// encrypted y values against constant x = 0..7, which reduces to two
// constant-weighted sums.
func LinearRegression() Benchmark {
	const n = 8
	const w = 16
	const frac = 6
	// Closed form with x = 0..n-1: slope = sum_i cS_i*y_i,
	// intercept = sum_i cI_i*y_i.
	var cs, ci [n]float64
	{
		var sx, sxx float64
		for i := 0; i < n; i++ {
			sx += float64(i)
			sxx += float64(i) * float64(i)
		}
		den := float64(n)*sxx - sx*sx
		for i := 0; i < n; i++ {
			cs[i] = (float64(n)*float64(i) - sx) / den
			ci[i] = (sxx - sx*float64(i)) / den
		}
	}
	quant := func(c float64) int64 { return int64(c*(1<<frac) + 0.5) }
	return Benchmark{
		Name:       "linear-regression",
		Desc:       "least-squares slope/intercept over 8 points",
		InputBits:  repeatBits(8, n),
		OutputBits: []int{w, w},
		Lower: func() *hdl.Module {
			m := hdl.New("linear_regression")
			ys := make([]hdl.Bus, n)
			for i := 0; i < n; i++ {
				ys[i] = m.SignExtend(m.InputBus(fmt.Sprintf("y%d", i), 8), w)
			}
			slope := m.ConstBus(0, w)
			icept := m.ConstBus(0, w)
			for i := 0; i < n; i++ {
				slope = m.Add(slope, m.Truncate(m.MulConstS(ys[i], quant(cs[i]), w+1), w))
				icept = m.Add(icept, m.Truncate(m.MulConstS(ys[i], quant(ci[i]), w+1), w))
			}
			m.OutputBus("slope", slope)
			m.OutputBus("intercept", icept)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			var s, c int64
			for i := 0; i < n; i++ {
				y := signExt(in[i], 8)
				s += y * quant(cs[i])
				c += y * quant(ci[i])
			}
			return []uint64{toRaw(s, w), toRaw(c, w)}
		},
	}
}

// KNN returns the index of the nearest of 8 constant 2-D points to an
// encrypted query, under Manhattan distance.
func KNN() Benchmark {
	points := [8][2]int64{{3, 7}, {12, 2}, {-5, 9}, {0, 0}, {8, 8}, {-10, -3}, {6, -6}, {1, 12}}
	const w = 10
	return Benchmark{
		Name:       "knn",
		Desc:       "nearest neighbor among 8 points (Manhattan)",
		InputBits:  []int{8, 8},
		OutputBits: []int{3},
		Lower: func() *hdl.Module {
			m := hdl.New("knn")
			qx := m.SignExtend(m.InputBus("qx", 8), w)
			qy := m.SignExtend(m.InputBus("qy", 8), w)
			bestIdx := m.ConstBus(0, 3)
			var bestDist hdl.Bus
			for i, pt := range points {
				dx := m.AbsS(m.Sub(qx, m.ConstBusSigned(pt[0], w)))
				dy := m.AbsS(m.Sub(qy, m.ConstBusSigned(pt[1], w)))
				d := m.Add(dx, dy)
				if i == 0 {
					bestDist = d
					continue
				}
				closer := m.LtU(d, bestDist)
				bestDist = m.Mux(closer, d, bestDist)
				bestIdx = m.Mux(closer, m.ConstBus(uint64(i), 3), bestIdx)
			}
			m.OutputBus("idx", bestIdx)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			qx, qy := signExt(in[0], 8), signExt(in[1], 8)
			best := 0
			bestD := int64(1) << 32
			abs := func(v int64) int64 {
				if v < 0 {
					return -v
				}
				return v
			}
			for i, pt := range points {
				d := abs(qx-pt[0]) + abs(qy-pt[1])
				if d < bestD {
					bestD, best = d, i
				}
			}
			return []uint64{uint64(best)}
		},
	}
}

// --- iterative approximation (serial workloads) ---

// EulersApprox sums the truncated series for e over an encrypted term
// count: out = sum_{k<=n} 1/k! in Fixed(4,10), with n in 0..7.
func EulersApprox() Benchmark {
	const w = 14
	const frac = 10
	inv := [8]int64{1024, 1024, 512, 171, 43, 9, 1, 0} // round(1024/k!)
	return Benchmark{
		Name:       "eulers-approx",
		Desc:       "series approximation of e gated by an encrypted term count",
		InputBits:  []int{3},
		OutputBits: []int{w},
		Serial:     true,
		Lower: func() *hdl.Module {
			m := hdl.New("eulers_approx")
			n := m.InputBus("n", 3)
			acc := m.ConstBus(0, w)
			for k := 0; k < 8; k++ {
				include := m.GeU(n, m.ConstBus(uint64(k), 3))
				term := m.AndBit(m.ConstBus(uint64(inv[k]), w), include)
				acc = m.Add(acc, term)
			}
			m.OutputBus("e", acc)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			var acc int64
			for k := 0; k <= int(in[0]); k++ {
				acc += inv[k]
			}
			return []uint64{toRaw(acc, w)}
		},
	}
}

// GradientDescent runs four steps of 1-D least-squares gradient descent
// w <- w - lr*(w*x - y)*x on encrypted fixed-point inputs (Fixed(8,6)).
func GradientDescent() Benchmark {
	const w = 14
	const frac = 6
	const steps = 4
	const lrShift = 3 // lr = 1/8
	return Benchmark{
		Name:       "gradient-descent",
		Desc:       "4 serial steps of 1-D gradient descent",
		InputBits:  []int{w, w, w}, // w0, x, y
		OutputBits: []int{w},
		Serial:     true,
		Lower: func() *hdl.Module {
			m := hdl.New("gradient_descent")
			wgt := m.InputBus("w0", w)
			x := m.InputBus("x", w)
			y := m.InputBus("y", w)
			for s := 0; s < steps; s++ {
				pred := m.Slice(m.MulS(wgt, x), frac, frac+w)
				err := m.Sub(pred, y)
				gradRaw := m.MulS(err, x) // 2w bits, frac*2 fractional
				grad := m.Slice(gradRaw, frac, frac+w)
				wgt = m.Sub(wgt, m.AshrConst(grad, lrShift))
			}
			m.OutputBus("w", wgt)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			wgt := signExt(in[0], w)
			x := signExt(in[1], w)
			y := signExt(in[2], w)
			mask := func(v int64) int64 { return int64(uint64(v)<<(64-w)) >> (64 - w) }
			for s := 0; s < steps; s++ {
				pred := mask((wgt * x) >> frac)
				err := mask(pred - y)
				grad := mask((err * x) >> frac)
				wgt = mask(wgt - grad>>lrShift)
			}
			return []uint64{toRaw(wgt, w)}
		},
	}
}

// NRSolver runs Newton-Raphson reciprocal iterations x <- x*(2 - a*x) in
// Fixed(4,10) — the deeply serial benchmark the paper calls out.
func NRSolver() Benchmark {
	const w = 14
	const frac = 10
	const steps = 4
	return Benchmark{
		Name:       "nr-solver",
		Desc:       "Newton-Raphson reciprocal (serial multiply chain)",
		InputBits:  []int{w, w}, // a, x0
		OutputBits: []int{w},
		Serial:     true,
		Lower: func() *hdl.Module {
			m := hdl.New("nr_solver")
			a := m.InputBus("a", w)
			x := m.InputBus("x0", w)
			two := m.ConstBus(2<<frac, w)
			for s := 0; s < steps; s++ {
				ax := m.Slice(m.MulS(a, x), frac, frac+w)
				t := m.Sub(two, ax)
				x = m.Slice(m.MulS(x, t), frac, frac+w)
			}
			m.OutputBus("x", x)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			a := signExt(in[0], w)
			x := signExt(in[1], w)
			mask := func(v int64) int64 { return int64(uint64(v)<<(64-w)) >> (64 - w) }
			for s := 0; s < steps; s++ {
				ax := mask((a * x) >> frac)
				t := mask(2<<frac - ax)
				x = mask((x * t) >> frac)
			}
			return []uint64{toRaw(x, w)}
		},
	}
}

// KeplerCalc iterates E <- M + e*(E - E^3/6) — a fixed-point Kepler
// equation solve with a cubic sine approximation (Fixed(4,10)).
func KeplerCalc() Benchmark {
	const w = 14
	const frac = 10
	const steps = 3
	const ecc = 205 // e = 0.2 in Fixed(4,10)
	return Benchmark{
		Name:       "kepler-calc",
		Desc:       "Kepler equation iterations with cubic sine",
		InputBits:  []int{w}, // mean anomaly M
		OutputBits: []int{w},
		Serial:     true,
		Lower: func() *hdl.Module {
			m := hdl.New("kepler_calc")
			M := m.InputBus("M", w)
			E := M
			for s := 0; s < steps; s++ {
				e2 := m.Slice(m.MulS(E, E), frac, frac+w)
				e3 := m.Slice(m.MulS(e2, E), frac, frac+w)
				// (e3 * 171) >> frac, computed wide enough not to clip.
				cube := m.Truncate(m.AshrConst(m.MulConstS(e3, 171, w+frac+2), frac), w)
				sinE := m.Sub(E, cube)
				scaled := m.Truncate(m.AshrConst(m.MulConstS(sinE, ecc, w+frac+2), frac), w)
				E = m.Add(M, scaled)
			}
			m.OutputBus("E", E)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			M := signExt(in[0], w)
			E := M
			mask := func(v int64) int64 { return int64(uint64(v)<<(64-w)) >> (64 - w) }
			for s := 0; s < steps; s++ {
				e2 := mask((E * E) >> frac)
				e3 := mask((e2 * E) >> frac)
				cube := mask((e3 * 171) >> frac)
				sinE := mask(E - cube)
				scaled := mask((sinE * ecc) >> frac)
				E = mask(M + scaled)
			}
			return []uint64{toRaw(E, w)}
		},
	}
}

// Parrondo simulates 12 rounds of the Parrondo game: capital evolves by ±1
// depending on encrypted coin bits and the sign of the running capital —
// an inherently serial mux chain.
func Parrondo() Benchmark {
	const rounds = 12
	const w = 8
	return Benchmark{
		Name:       "parrondo",
		Desc:       "Parrondo's paradox game simulation (serial)",
		InputBits:  repeatBits(1, rounds),
		OutputBits: []int{w},
		Serial:     true,
		Lower: func() *hdl.Module {
			m := hdl.New("parrondo")
			coins := make([]circuit.NodeID, rounds)
			for i := range coins {
				coins[i] = m.Input(fmt.Sprintf("coin%d", i))
			}
			capital := m.ConstBus(0, w)
			one := m.ConstBus(1, w)
			for r := 0; r < rounds; r++ {
				neg := capital[w-1] // losing: play the safe game
				// win if coin XOR sign (game switch), else lose
				win := m.B.Xor(coins[r], neg)
				up := m.Add(capital, one)
				down := m.Sub(capital, one)
				capital = m.Mux(win, up, down)
			}
			m.OutputBus("capital", capital)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			var capital int64
			for r := 0; r < rounds; r++ {
				neg := int64(0)
				if capital < 0 {
					neg = 1
				}
				if in[r]^uint64(neg) == 1 {
					capital++
				} else {
					capital--
				}
			}
			return []uint64{toRaw(capital, w)}
		},
	}
}

// RobertsCross applies Roberts-Cross edge detection over an encrypted
// 8x8 image of unsigned bytes: out = |p(i,j)-p(i+1,j+1)| + |p(i+1,j)-p(i,j+1)|.
func RobertsCross() Benchmark {
	const size = 8
	const w = 10
	return Benchmark{
		Name:       "roberts-cross",
		Desc:       "Roberts-Cross edge detection over an 8x8 image",
		InputBits:  repeatBits(8, size*size),
		OutputBits: repeatBits(w, (size-1)*(size-1)),
		Lower: func() *hdl.Module {
			m := hdl.New("roberts_cross")
			img := make([]hdl.Bus, size*size)
			for i := range img {
				img[i] = m.SignExtend(m.ZeroExtend(m.InputBus(fmt.Sprintf("p%d", i), 8), 9), w)
			}
			for y := 0; y < size-1; y++ {
				for x := 0; x < size-1; x++ {
					g1 := m.AbsS(m.Sub(img[y*size+x], img[(y+1)*size+x+1]))
					g2 := m.AbsS(m.Sub(img[(y+1)*size+x], img[y*size+x+1]))
					m.OutputBus(fmt.Sprintf("e%d_%d", y, x), m.Add(g1, g2))
				}
			}
			return m
		},
		Ref: func(in []uint64) []uint64 {
			abs := func(v int64) int64 {
				if v < 0 {
					return -v
				}
				return v
			}
			var out []uint64
			for y := 0; y < size-1; y++ {
				for x := 0; x < size-1; x++ {
					g1 := abs(int64(in[y*size+x]) - int64(in[(y+1)*size+x+1]))
					g2 := abs(int64(in[(y+1)*size+x]) - int64(in[y*size+x+1]))
					out = append(out, toRaw(g1+g2, w))
				}
			}
			return out
		},
	}
}
