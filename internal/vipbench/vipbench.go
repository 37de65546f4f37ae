// Package vipbench implements the VIP-Bench workloads the paper evaluates
// (Biernacki et al., SEED 2021): 18 privacy-enhanced-computation kernels
// ranging from tiny linear arithmetic (Hamming distance, dot product)
// through iterative approximation (Euler, Newton-Raphson, Kepler) to
// real-world applications (Roberts-Cross edge detection, MNIST), plus the
// paper's additional MNIST_M/MNIST_L CNNs and Attention_S/Attention_L
// self-attention layers.
//
// Every benchmark carries a plaintext reference implementation; tests
// compare the synthesized circuit against it on random inputs. Benchmarks
// are built with the hdl library (the paper implements them in Chisel) and
// run through the synth optimization pipeline.
package vipbench

import (
	"fmt"

	"pytfhe/internal/circuit"
	"pytfhe/internal/hdl"
	"pytfhe/internal/synth"
)

// Benchmark is one VIP-Bench kernel.
type Benchmark struct {
	Name string
	Desc string
	// InputBits and OutputBits give the widths of the logical input and
	// output words, in declaration order.
	InputBits  []int
	OutputBits []int
	// Serial marks workloads whose dataflow is mostly a dependent chain —
	// the ones the paper observes scale poorly (NR-Solver, Parrondo,
	// Euler, Kadane, gradient descent, Kepler).
	Serial bool
	// Lower describes the kernel in the hdl library: the module Build
	// lowers to gates and optimizes.
	Lower func() *hdl.Module
	// Ref computes the same function on plaintext words.
	Ref func(in []uint64) []uint64
}

// Build lowers the kernel's module to gates and returns the optimized
// netlist.
func (b Benchmark) Build() (*circuit.Netlist, error) {
	nl, err := b.Lower().Build()
	if err != nil {
		return nil, err
	}
	res, err := synth.Optimize(nl)
	if err != nil {
		return nil, err
	}
	return res.Netlist, nil
}

// EncodeInputs packs logical input words into the netlist's input bits.
func (b Benchmark) EncodeInputs(vals []uint64) ([]bool, error) {
	if len(vals) != len(b.InputBits) {
		return nil, fmt.Errorf("vipbench: %s takes %d inputs, got %d", b.Name, len(b.InputBits), len(vals))
	}
	var bits []bool
	for i, w := range b.InputBits {
		for j := 0; j < w; j++ {
			bits = append(bits, vals[i]>>uint(j)&1 == 1)
		}
	}
	return bits, nil
}

// DecodeOutputs unpacks netlist output bits into logical words.
func (b Benchmark) DecodeOutputs(bits []bool) ([]uint64, error) {
	total := 0
	for _, w := range b.OutputBits {
		total += w
	}
	if len(bits) != total {
		return nil, fmt.Errorf("vipbench: %s produces %d bits, got %d", b.Name, total, len(bits))
	}
	out := make([]uint64, len(b.OutputBits))
	off := 0
	for i, w := range b.OutputBits {
		for j := 0; j < w; j++ {
			if bits[off+j] {
				out[i] |= 1 << uint(j)
			}
		}
		off += w
	}
	return out, nil
}

func signExt(v uint64, w int) int64 {
	shift := 64 - uint(w)
	return int64(v<<shift) >> shift
}

func toRaw(v int64, w int) uint64 { return uint64(v) & (1<<uint(w) - 1) }

// repeatBits returns n copies of w.
func repeatBits(w, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = w
	}
	return out
}

// All returns the 18 VIP-Bench kernels in ascending rough gate-count order
// (the ordering Fig. 10 uses on its x axis), excluding the MNIST networks,
// which are produced by MNISTS/MNISTM/MNISTL in models.go.
func All() []Benchmark {
	return []Benchmark{
		HammingDistance(),
		FanControl(),
		Primality(),
		Distinctness(),
		EulersApprox(),
		StringSearch(),
		FilteredQuery(),
		Kadane(),
		BubbleSort(),
		DotProduct(),
		LinearRegression(),
		KNN(),
		Parrondo(),
		GradientDescent(),
		NRSolver(),
		KeplerCalc(),
		EditDistance(),
		RobertsCross(),
	}
}

// ByName returns the benchmark with the given name.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("vipbench: unknown benchmark %q", name)
}

// --- small linear kernels ---

// HammingDistance counts differing bits of two 64-bit words.
func HammingDistance() Benchmark {
	return Benchmark{
		Name:       "hamming-distance",
		Desc:       "popcount of the XOR of two 64-bit words",
		InputBits:  []int{64, 64},
		OutputBits: []int{7},
		Lower: func() *hdl.Module {
			m := hdl.New("hamming_distance")
			a := m.InputBus("a", 64)
			b := m.InputBus("b", 64)
			m.OutputBus("dist", m.PopCount(m.Xor(a, b)))
			return m
		},
		Ref: func(in []uint64) []uint64 {
			x := in[0] ^ in[1]
			n := uint64(0)
			for x != 0 {
				n += x & 1
				x >>= 1
			}
			return []uint64{n}
		},
	}
}

// FanControl picks one of four fan speeds from an 8-bit temperature.
func FanControl() Benchmark {
	thresholds := []uint64{40, 80, 160}
	speeds := []uint64{0, 1, 2, 3}
	return Benchmark{
		Name:       "fan-control",
		Desc:       "threshold ladder selecting a fan speed",
		InputBits:  []int{8},
		OutputBits: []int{2},
		Lower: func() *hdl.Module {
			m := hdl.New("fan_control")
			t := m.InputBus("t", 8)
			out := m.ConstBus(speeds[0], 2)
			for i, th := range thresholds {
				ge := m.GeU(t, m.ConstBus(th, 8))
				out = m.Mux(ge, m.ConstBus(speeds[i+1], 2), out)
			}
			m.OutputBus("speed", out)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			s := speeds[0]
			for i, th := range thresholds {
				if in[0] >= th {
					s = speeds[i+1]
				}
			}
			return []uint64{s}
		},
	}
}

// Primality tests whether a 6-bit input is prime.
func Primality() Benchmark {
	primes := []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61}
	return Benchmark{
		Name:       "primality",
		Desc:       "primality of a 6-bit value by comparison ladder",
		InputBits:  []int{6},
		OutputBits: []int{1},
		Lower: func() *hdl.Module {
			m := hdl.New("primality")
			n := m.InputBus("n", 6)
			hits := make(hdl.Bus, 0, len(primes))
			for _, p := range primes {
				hits = append(hits, m.Eq(n, m.ConstBus(p, 6)))
			}
			m.Output("prime", m.OrReduce(hits))
			return m
		},
		Ref: func(in []uint64) []uint64 {
			for _, p := range primes {
				if in[0] == p {
					return []uint64{1}
				}
			}
			return []uint64{0}
		},
	}
}

// Distinctness reports whether 8 unsigned bytes are pairwise distinct.
func Distinctness() Benchmark {
	const n = 8
	return Benchmark{
		Name:       "distinctness",
		Desc:       "pairwise distinctness of 8 bytes",
		InputBits:  repeatBits(8, n),
		OutputBits: []int{1},
		Lower: func() *hdl.Module {
			m := hdl.New("distinctness")
			xs := make([]hdl.Bus, n)
			for i := range xs {
				xs[i] = m.InputBus(fmt.Sprintf("x%d", i), 8)
			}
			var pairs hdl.Bus
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					pairs = append(pairs, m.Ne(xs[i], xs[j]))
				}
			}
			m.Output("distinct", m.AndReduce(pairs))
			return m
		},
		Ref: func(in []uint64) []uint64 {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if in[i] == in[j] {
						return []uint64{0}
					}
				}
			}
			return []uint64{1}
		},
	}
}

// StringSearch finds whether a constant 4-character needle occurs in an
// encrypted 16-character haystack (4-bit alphabet).
func StringSearch() Benchmark {
	needle := []uint64{3, 1, 4, 1}
	const hay = 16
	return Benchmark{
		Name:       "string-search",
		Desc:       "constant needle search over an encrypted string",
		InputBits:  repeatBits(4, hay),
		OutputBits: []int{1},
		Lower: func() *hdl.Module {
			m := hdl.New("string_search")
			cs := make([]hdl.Bus, hay)
			for i := range cs {
				cs[i] = m.InputBus(fmt.Sprintf("c%d", i), 4)
			}
			var hits hdl.Bus
			for off := 0; off+len(needle) <= hay; off++ {
				var eqs hdl.Bus
				for k, nc := range needle {
					eqs = append(eqs, m.Eq(cs[off+k], m.ConstBus(nc, 4)))
				}
				hits = append(hits, m.AndReduce(eqs))
			}
			m.Output("found", m.OrReduce(hits))
			return m
		},
		Ref: func(in []uint64) []uint64 {
			for off := 0; off+len(needle) <= hay; off++ {
				match := true
				for k, nc := range needle {
					if in[off+k] != nc {
						match = false
						break
					}
				}
				if match {
					return []uint64{1}
				}
			}
			return []uint64{0}
		},
	}
}

// FilteredQuery sums the 8-bit values of the records whose 4-bit key
// equals an encrypted query key (16 records).
func FilteredQuery() Benchmark {
	const n = 16
	return Benchmark{
		Name:       "filtered-query",
		Desc:       "SELECT SUM(value) WHERE key = q over 16 records",
		InputBits:  append(repeatBits(4, n+1), repeatBits(8, n)...),
		OutputBits: []int{12},
		Lower: func() *hdl.Module {
			m := hdl.New("filtered_query")
			q := m.InputBus("q", 4)
			keys := make([]hdl.Bus, n)
			for i := range keys {
				keys[i] = m.InputBus(fmt.Sprintf("k%d", i), 4)
			}
			vals := make([]hdl.Bus, n)
			for i := range vals {
				vals[i] = m.InputBus(fmt.Sprintf("v%d", i), 8)
			}
			sum := m.ConstBus(0, 12)
			for i := 0; i < n; i++ {
				hit := m.Eq(keys[i], q)
				masked := m.AndBit(m.ZeroExtend(vals[i], 12), hit)
				sum = m.Add(sum, masked)
			}
			m.OutputBus("sum", sum)
			return m
		},
		Ref: func(in []uint64) []uint64 {
			q := in[0]
			var sum uint64
			for i := 0; i < n; i++ {
				if in[1+i] == q {
					sum += in[1+n+i]
				}
			}
			return []uint64{sum & 0xFFF}
		},
	}
}
