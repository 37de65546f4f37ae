// Multi-input LUT gates and the one bootstrap plan every gate runs. A
// k-input LUT (k ≤ MaxLUTArity) names an arbitrary boolean function by its
// truth table and is evaluated homomorphically with a single programmable
// bootstrap, just as a classic 2-input gate is: the operands (phases ±1/8)
// are combined with a bias and small integer weights, so the sum's phase
// lands in one of eight torus cells m/8, and the bootstrap's test vector
// reads the function value off the cell. Plan is that recipe, and PlanOf
// looks it up by (arity, table) for classic kinds and LUTs alike.
//
// Not every truth table is reachable this way. Integer-weighted sums of
// ±1/8 stay on the 1/8 grid — eight cells, not 2^k distinct points — and
// the negacyclic ring forces the test vector to be antiperiodic:
// lut(m+4 mod 8) = −lut(m). A table is feasible exactly when some weight
// vector c ∈ {±1,±2,±3}^k separates it: assignments that share a cell
// must want the same output, and assignments on opposite cells (m and
// m+4) must want opposite outputs. The solver searches weight vectors in
// order of increasing Σc² (the pre-bootstrap noise amplification) and
// keeps the cheapest plan, or reports the table unreachable — AND is
// (1,1), XOR needs (2,1), majority is (1,1,1), and 3-input parity needs
// (1,2,2); 3-input AND has no plan at all (every weight vector puts two
// want-false assignments on antipodal cells).
package logic

import (
	"fmt"
	"sync"
)

// MaxLUTArity is the largest LUT input count the toolchain supports. The
// weighted phase sum must stay on the eight-cell 1/8 grid with a slot
// half-width of 1/16 — the same internal decryption margin the 2-input
// gates use — which caps useful arity at three.
const MaxLUTArity = 3

// TT is a truth table over up to MaxLUTArity inputs, one bit per input
// assignment. The bit index is the assignment read MSB-first — for
// arity k and inputs x₀..x₍k₋₁₎, bit (x₀·2^(k-1) | … | x₍k₋₁₎) holds
// f(x₀,…,x₍k₋₁₎) — so an arity-2 TT is numerically identical to the Kind
// nibble (bit 2a+b = f(a,b)).
type TT uint8

// TTOf converts a 2-input gate kind to its truth table.
func TTOf(k Kind) TT { return TT(k) }

// Kind converts an arity-2 truth table back to the gate alphabet.
func (t TT) Kind() Kind { return Kind(t & 0xF) }

// Mask returns the valid-bit mask for a table of the given arity.
func TTMask(arity int) TT { return TT(1<<(1<<arity)) - 1 }

// Eval evaluates the table for one input assignment v (read MSB-first,
// matching the bit-index convention above).
func (t TT) Eval(v uint8) bool { return t>>(v)&1 == 1 }

// EvalBits evaluates the table on explicit input bits, bits[0] being the
// most significant index bit.
func (t TT) EvalBits(bits ...bool) bool {
	var v uint8
	for _, b := range bits {
		v <<= 1
		if b {
			v |= 1
		}
	}
	return t.Eval(v)
}

// IgnoresInput reports whether the arity-wide table is independent of
// input i (0-based, MSB-first).
func (t TT) IgnoresInput(arity, i int) bool {
	shift := uint(arity - 1 - i)
	for v := 0; v < 1<<arity; v++ {
		if v>>shift&1 == 0 && t.Eval(uint8(v)) != t.Eval(uint8(v)|1<<shift) {
			return false
		}
	}
	return true
}

// DropInput projects away input i (which must be ignored, or the i=0
// restriction is taken), returning the table over the remaining arity-1
// inputs in the same MSB-first order.
func (t TT) DropInput(arity, i int) TT {
	shift := uint(arity - 1 - i)
	var out TT
	var w uint8
	for v := 0; v < 1<<arity; v++ {
		if v>>shift&1 == 1 {
			continue
		}
		if t.Eval(uint8(v)) {
			out |= 1 << w
		}
		w++
	}
	return out
}

// Restrict pins input i (0-based, MSB-first) to val, returning the table
// over the remaining arity-1 inputs in the same order. Restrict(arity, i,
// false) coincides with DropInput for ignored inputs.
func (t TT) Restrict(arity, i int, val bool) TT {
	shift := uint(arity - 1 - i)
	var out TT
	var w uint8
	for v := 0; v < 1<<arity; v++ {
		if (v>>shift&1 == 1) != val {
			continue
		}
		if t.Eval(uint8(v)) {
			out |= 1 << w
		}
		w++
	}
	return out
}

// MergeDup identifies inputs i and j (i < j): input j is dropped and its
// index bit copies input i's, for collapsing duplicate operands.
func (t TT) MergeDup(arity, i, j int) TT {
	var out TT
	n := arity - 1
	for v := 0; v < 1<<n; v++ {
		var full uint8
		ri := 0
		for pos := 0; pos < arity; pos++ {
			if pos == j {
				continue
			}
			full |= uint8(v>>(n-1-ri)&1) << (arity - 1 - pos)
			ri++
		}
		if full>>(arity-1-i)&1 == 1 {
			full |= 1 << (arity - 1 - j)
		}
		if t.Eval(full) {
			out |= 1 << v
		}
	}
	return out
}

// FlipInput negates input i, absorbing a NOT gate feeding that operand.
func (t TT) FlipInput(arity, i int) TT {
	shift := uint(arity - 1 - i)
	var out TT
	for v := 0; v < 1<<arity; v++ {
		if t.Eval(uint8(v) ^ 1<<shift) {
			out |= 1 << v
		}
	}
	return out
}

// Permute reorders inputs: the returned table g satisfies
// g(x[perm[0]], …, x[perm[k-1]]) = t(x[0], …, x[k-1]), matching an
// operand slice reordered as newOps[i] = ops[perm[i]]. perm must be a
// permutation of 0..arity-1.
func (t TT) Permute(arity int, perm []int) TT {
	var out TT
	for v := 0; v < 1<<arity; v++ {
		var ov uint8
		for i := 0; i < arity; i++ {
			ov |= uint8(v>>(arity-1-i)&1) << (arity - 1 - perm[i])
		}
		if t.Eval(ov) {
			out |= 1 << v
		}
	}
	return out
}

// IsConst reports whether the arity-wide table is constant, and its value.
func (t TT) IsConst(arity int) (bool, bool) {
	m := TTMask(arity)
	switch t & m {
	case 0:
		return true, false
	case m:
		return true, true
	}
	return false, false
}

// Plan is the one-bootstrap recipe of a gate, classic kind or LUT alike.
// The bootstrap input is a noiseless bias plus the weighted operands, each
// a ±1/8 ciphertext,
//
//	tmp = Bias + Σᵢ Weights[i]·xᵢ   (i < Arity),
//
// and the bootstrap reads the gate's value off a test vector given by its
// lower half-torus cells: Cells[c] is +1 (true, +1/8) or −1 (false, −1/8)
// for phases in [c/8, (c+1)/8), and the negacyclic ring reads −Cells[c] a
// half-turn on. Every phase a plan produces lies at least 1/16 from the
// nearest cell of the other sign: the margin the noise analysis charges.
type Plan struct {
	Arity   int                // operands read: 2 for a classic kind, the table's arity for a LUT
	Bias    uint32             // torus units of 2^-32
	Weights [MaxLUTArity]int32 // zero from Arity on
	Cells   [PlanCells]int8
}

// PlanCells is the number of test-vector cells in a Plan: the lower half
// of the eight-cell 1/8 grid integer-weighted sums of ±1/8 land on.
const PlanCells = gridCells / 2

// gridCells is the number of 1/8-wide phase cells on the torus.
const gridCells = 8

// WeightNormSq is Σc², the factor the input noise variance is amplified
// by before the bootstrap refreshes it. The noise analysis divides the
// 1/16 internal margin by the square root of this times the input
// variance.
func (p Plan) WeightNormSq() int {
	n := 0
	for _, c := range p.Weights {
		n += int(c * c)
	}
	return n
}

// String renders the plan for diagnostics.
func (p Plan) String() string {
	return fmt.Sprintf("plan%d bias %#x weights %v cells %v (Σc²=%d)", p.Arity, p.Bias, p.Weights[:p.Arity], p.Cells, p.WeightNormSq())
}

// classicPlans holds the ten bootstrapped classic kinds, as gate
// bootstrapping in the TFHE library computes them: true sums land in
// [0, 1/2), false ones in [1/2, 1), and the test vector is the constant
// +1/8. Free kinds hold the zero Plan (Arity 0: no plan).
var classicPlans = [NumKinds]Plan{
	NAND:  classic(1, -1, -1),
	AND:   classic(-1, 1, 1),
	OR:    classic(1, 1, 1),
	NOR:   classic(-1, -1, -1),
	XOR:   classic(2, 2, 2),
	XNOR:  classic(-2, -2, -2),
	ANDNY: classic(-1, -1, 1),
	ANDYN: classic(-1, 1, -1),
	ORNY:  classic(1, -1, 1),
	ORYN:  classic(1, 1, -1),
}

// classic is the plan eighths·1/8 + ca·a + cb·b read by the constant test
// vector.
func classic(eighths, ca, cb int32) Plan {
	return Plan{Arity: 2, Bias: uint32(eighths) << 29, Weights: [MaxLUTArity]int32{ca, cb}, Cells: [PlanCells]int8{1, 1, 1, 1}}
}

// lutBias is the bias of every LUT plan: 1/16, half a cell, so a weighted
// sum m/8 reads the middle of cell m.
const lutBias = 1 << 28

// lutWeightChoices is the per-input weight alphabet, ordered so the
// lexicographic sweep below visits small magnitudes (and positive signs)
// first.
var lutWeightChoices = []int32{1, -1, 2, -2, 3, -3}

// solveLUT runs the exhaustive weight search for one table and returns
// the cheapest plan, or the zero Plan when no weight vector separates it.
func solveLUT(arity int, tt TT) Plan {
	best := Plan{}
	bestNorm := -1
	var weights [MaxLUTArity]int32
	var sweep func(i int)
	sweep = func(i int) {
		if i == arity {
			cells, ok := lutCells(arity, tt, weights)
			if !ok {
				return
			}
			norm := 0
			for j := 0; j < arity; j++ {
				norm += int(weights[j] * weights[j])
			}
			if bestNorm < 0 || norm < bestNorm {
				best = Plan{Arity: arity, Bias: lutBias, Weights: weights, Cells: cells}
				bestNorm = norm
			}
			return
		}
		for _, c := range lutWeightChoices {
			weights[i] = c
			sweep(i + 1)
		}
		weights[i] = 0
	}
	sweep(0)
	return best
}

// lutCells checks one weight vector against the table: every assignment
// is dropped onto its phase cell, and the induced cell signs must be
// self-consistent and antiperiodic. It returns the lower half; cells no
// assignment lands on (nor on their opposite) are filled arbitrarily, as
// the bootstrap never reads them.
func lutCells(arity int, tt TT, weights [MaxLUTArity]int32) ([PlanCells]int8, bool) {
	var cells [gridCells]int8
	for v := 0; v < 1<<arity; v++ {
		sum := int32(0)
		for i := 0; i < arity; i++ {
			s := int32(-1)
			if v>>(arity-1-i)&1 == 1 {
				s = 1
			}
			sum += weights[i] * s
		}
		cell := ((sum % gridCells) + gridCells) % gridCells
		want := int8(-1)
		if tt.Eval(uint8(v)) {
			want = 1
		}
		opp := (cell + PlanCells) % gridCells
		if cells[cell] == -want || cells[opp] == want {
			return [PlanCells]int8{}, false
		}
		cells[cell] = want
		cells[opp] = -want
	}
	var lower [PlanCells]int8
	for m := range lower {
		lower[m] = cells[m]
		if lower[m] == 0 {
			lower[m] = 1
		}
	}
	return lower, true
}

// lutPlans caches the search results: 16 arity-2 and 256 arity-3 tables,
// computed once on first use. An infeasible table holds the zero Plan.
var lutPlans struct {
	once sync.Once
	plan [MaxLUTArity + 1][1 << (1 << MaxLUTArity)]Plan
}

func lutSolveAll() {
	for arity := 2; arity <= MaxLUTArity; arity++ {
		for tt := 0; tt < 1<<(1<<arity); tt++ {
			lutPlans.plan[arity][tt] = solveLUT(arity, TT(tt))
		}
	}
}

// PlanOf returns the bootstrap plan of a gate in the encoding the netlist
// IR, the binary format and the gate engine share: arity 0 is a classic
// gate whose table is its Kind nibble, arity 2..MaxLUTArity a LUT. ok is
// false for a kind that does not bootstrap or lies outside the alphabet,
// for any other arity, and for a table no weight vector in
// {±1,±2,±3}^arity separates. LUT results are memoized: the call is a
// table lookup after first use.
func PlanOf(arity int, tt TT) (Plan, bool) {
	var p Plan
	switch {
	case arity == 0 && tt < NumKinds:
		p = classicPlans[tt]
	case arity >= 2 && arity <= MaxLUTArity:
		lutPlans.once.Do(lutSolveAll)
		p = lutPlans.plan[arity][tt&TTMask(arity)]
	}
	return p, p.Arity != 0
}

// LUTFeasible reports whether the table has a single-bootstrap plan at
// LUT arity (2..MaxLUTArity).
func LUTFeasible(arity int, tt TT) bool {
	_, ok := PlanOf(arity, tt)
	return ok && arity != 0
}
