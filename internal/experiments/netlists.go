package experiments

import (
	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// ImbalancedNetlist builds the deep, irregular ripple workload the executor
// benchmarks share: seven serial NAND chains of unequal depths {30, 30, 30,
// 30, 30, 12, 6} against one shared operand, with builder optimizations off
// so the logical gate count is exactly the sum of the depths, 168. Most of
// the netlist's wavefronts hold five ready gates, one more than four
// workers. Every executor runs the compiled plan, though, and the chains'
// period-2 ciphertext sequences give its exact functional deduplication its
// best case: the 168 logical bootstraps execute as 14, in two levels of
// seven.
func ImbalancedNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("ripple-imbalanced", circuit.NoOptimizations())
	depths := []int{30, 30, 30, 30, 30, 12, 6}
	ins := b.Inputs("x", len(depths)+1)
	for c, depth := range depths {
		cur := ins[c]
		for d := 0; d < depth; d++ {
			cur = b.Gate(logic.NAND, cur, ins[len(depths)])
		}
		b.Output("o", cur)
	}
	return b.MustBuild()
}

// LUTBenchNetlist builds the cone-heavy voting workload the multi-bit LUT
// tests and `pytfhe check` run: six independent 9-input blocks, each three
// not-all-equal detectors NAE(a,b,c) = (a⊕b)∨(b⊕c) — three gates whose
// composed table 0x7E has a single-bootstrap plan, so each cone collapses
// to one LUT — combined by a two-XOR parity chain whose second XOR
// absorbs the first into a PARITY3 LUT. 11 bootstrapped gates per block
// classic, 4 programmable bootstraps clustered: the ≥2× bootstraps-per-
// gate drop the acceptance criterion demands, with margin. Builder
// optimizations are off so the logical gate count is exactly 11 per
// block; the blocks use disjoint inputs so neither CSE nor plan-level
// functional deduplication can shrink the LUT-off baseline.
func LUTBenchNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("lut-cones", circuit.NoOptimizations())
	const blocks = 6
	ins := b.Inputs("x", blocks*9)
	for c := 0; c < blocks; c++ {
		xs := ins[c*9 : (c+1)*9]
		nae := func(x, y, z circuit.NodeID) circuit.NodeID {
			return b.Or(b.Xor(x, y), b.Xor(y, z))
		}
		out := b.Xor(
			b.Xor(nae(xs[0], xs[1], xs[2]), nae(xs[3], xs[4], xs[5])),
			nae(xs[6], xs[7], xs[8]))
		b.Output("o", out)
	}
	return b.MustBuild()
}
