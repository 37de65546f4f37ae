package logic

import "testing"

// ttFromFunc builds an arity-k table from a reference function.
func ttFromFunc(arity int, f func(v uint8) bool) TT {
	var t TT
	for v := 0; v < 1<<arity; v++ {
		if f(uint8(v)) {
			t |= 1 << v
		}
	}
	return t
}

// TestSolveLUTKnownPlans pins the hand-derived weight vectors: AND
// separates with (1,1), XOR needs (2,1), majority is the symmetric
// (1,1,1), and 3-input parity needs (2,2,1) — the norms matter because
// the noise analysis amplifies input variance by Σc².
func TestSolveLUTKnownPlans(t *testing.T) {
	cases := []struct {
		name  string
		arity int
		tt    TT
		norm  int
	}{
		{"AND", 2, TTOf(AND), 2},
		{"OR", 2, TTOf(OR), 2},
		{"NAND", 2, TTOf(NAND), 2},
		{"XOR", 2, TTOf(XOR), 5},
		{"XNOR", 2, TTOf(XNOR), 5},
		{"MAJ", 3, 0xE8, 3},
		{"PARITY3", 3, 0x96, 9},
		{"A_XOR_BC", 3, 0x78, 6},   // a ⊕ (b ∧ c)
		{"XOR_SPREAD", 3, 0x7E, 3}, // (a⊕b) ∨ (a⊕c)
	}
	for _, c := range cases {
		p, ok := PlanOf(c.arity, c.tt)
		if !ok {
			t.Fatalf("%s: no plan found", c.name)
		}
		if p.WeightNormSq() != c.norm {
			t.Errorf("%s: Σc² = %d, want %d (plan %v)", c.name, p.WeightNormSq(), c.norm, p)
		}
	}
}

// TestSolveLUTCellsMatchTable replays every feasible plan through the
// cell model: for each assignment the weighted phase sum must land on a
// cell whose sign encodes exactly the table's output, reading the upper
// half of the torus as the negated lower half (the negacyclic test-vector
// constraint), and the bias must put the sum mid-cell.
func TestSolveLUTCellsMatchTable(t *testing.T) {
	for arity := 2; arity <= MaxLUTArity; arity++ {
		feasible := 0
		for tt := TT(0); ; tt++ {
			p, ok := PlanOf(arity, tt)
			if ok {
				feasible++
				if p.Bias != 1<<28 || p.Arity != arity {
					t.Fatalf("arity %d tt %#x: plan %v, want arity %d and bias 1/16", arity, tt, p, arity)
				}
				for v := 0; v < 1<<arity; v++ {
					sum := int32(0)
					for i := 0; i < arity; i++ {
						s := int32(-1)
						if v>>(arity-1-i)&1 == 1 {
							s = 1
						}
						sum += p.Weights[i] * s
					}
					cell := ((sum % 8) + 8) % 8
					got := p.Cells[cell%PlanCells] > 0
					if cell >= PlanCells { // the upper half reads the negated cell
						got = !got
					}
					if got != tt.Eval(uint8(v)) {
						t.Fatalf("arity %d tt %#x assignment %d: cell %d decodes %v, table says %v",
							arity, tt, v, cell, got, tt.Eval(uint8(v)))
					}
				}
			}
			if tt == TTMask(arity) {
				break
			}
		}
		if feasible == 0 {
			t.Fatalf("arity %d: no feasible tables at all", arity)
		}
		t.Logf("arity %d: %d/%d tables single-bootstrap feasible", arity, feasible, int(TTMask(arity))+1)
	}
}

// TestSolveLUTInfeasible pins tables with no plan. 3-input AND puts two
// want-false assignments on antipodal cells for every weight vector (any
// bias included), so it — and by input/output negation symmetry OR3,
// NAND3 and the multiplexer — cannot be evaluated in one msize-8
// bootstrap; they would need a 16-slot message space at half the noise
// margin. The clustering pass simply leaves such cones as 2-input gates.
func TestSolveLUTInfeasible(t *testing.T) {
	for _, c := range []struct {
		name string
		tt   TT
	}{
		{"AND3", 0x80},
		{"OR3", 0xFE},
		{"NAND3", 0x7F},
		{"MUX", 0xCA}, // a ? b : c
	} {
		if p, ok := PlanOf(3, c.tt); ok {
			t.Errorf("%s (tt %#x) unexpectedly has plan %v", c.name, c.tt, p)
		}
	}
}

// TestSolveLUTEveryArity2 verifies every non-constant 2-input gate has a
// LUT plan — the clustering pass relies on being able to re-express any
// absorbed root gate. (Constants are infeasible by design: all four
// assignments want the same sign, which antiperiodicity forbids; they
// never bootstrap anyway.)
func TestSolveLUTEveryArity2(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		_, ok := PlanOf(2, TTOf(k))
		if k.IsConst() {
			if ok {
				t.Errorf("%v: constant table unexpectedly has a plan", k)
			}
			continue
		}
		if !ok {
			t.Errorf("%v: no arity-2 LUT plan", k)
		}
	}
}

// TestSolveLUTBounds rejects out-of-range arities. Arity 0 names a classic
// kind, and 0xFF lies outside the alphabet.
func TestSolveLUTBounds(t *testing.T) {
	for _, arity := range []int{0, 1, MaxLUTArity + 1} {
		if _, ok := PlanOf(arity, 0xFF); ok {
			t.Errorf("arity %d: unexpectedly solvable", arity)
		}
	}
}

// TestTTHelpers exercises the projection helpers the builder and the
// clustering pass use to degenerate LUTs with ignored inputs.
func TestTTHelpers(t *testing.T) {
	// f(a,b,c) = a AND c ignores input 1 (b).
	tt := ttFromFunc(3, func(v uint8) bool { return v>>2&1 == 1 && v&1 == 1 })
	if !tt.IgnoresInput(3, 1) {
		t.Fatal("a AND c should ignore input 1")
	}
	if tt.IgnoresInput(3, 0) || tt.IgnoresInput(3, 2) {
		t.Fatal("a AND c depends on inputs 0 and 2")
	}
	if got := tt.DropInput(3, 1); got.Kind() != AND {
		t.Fatalf("dropping b from (a AND c) = %#x, want AND", got)
	}
	if c, _ := tt.IsConst(3); c {
		t.Fatal("a AND c is not constant")
	}
	if c, v := TT(0xFF).IsConst(3); !c || !v {
		t.Fatal("0xFF should be constant true at arity 3")
	}
	if TTOf(XOR).Kind() != XOR {
		t.Fatal("arity-2 TT/Kind round trip broken")
	}
	if !TT(0x96).EvalBits(true, false, false) { // parity(1,0,0)
		t.Fatal("EvalBits MSB-first convention broken")
	}
}
