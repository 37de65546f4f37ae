package plan

import (
	"fmt"
	"testing"
	"unsafe"

	"pytfhe/internal/asm"
	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// TestInstrSize pins the in-memory instruction at 20 bytes: four 32-bit
// refs, a table and an arity. Plans hold one per deduplicated gate, so a
// new field must be a deliberate decision.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 20 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want 20", got)
	}
}

// TestOneGateRecord checks the one gate record exhaustively: every classic
// kind (arity 0), every arity-2 table and every arity-3 table. On every
// input assignment, circuit.Gate.Eval, logic.Kind.Eval (at arity 0) and
// the word evaluator agree; the canonical operand order computes the same
// function under every order of the operands' exec ids, and at arity 0
// its swapped table is logic.Kind.SwapInputs; and the record evaluates
// the same after asm.Assemble → asm.Disassemble, which accepts exactly the
// records Validate does: every classic kind and every LUT table with a
// single-bootstrap plan.
func TestOneGateRecord(t *testing.T) {
	type record struct {
		arity uint8
		tts   int
	}
	assembled := 0
	for _, r := range []record{{0, logic.NumKinds}, {2, 16}, {3, 256}} {
		for tt := 0; tt < r.tts; tt++ {
			g := circuit.Gate{A: 1, B: 2, TT: logic.TT(tt), Arity: r.arity}
			if r.arity == 3 {
				g.C = 3
			}
			name := fmt.Sprintf("arity %d table %#x", r.arity, tt)
			n := g.NumOperands()
			// Word i+1 holds input i's value in lane ℓ: bit i of ℓ, so
			// lanes 0..2^n-1 enumerate every assignment.
			words := make([]uint64, 4)
			for i := 0; i < n; i++ {
				words[i+1] = lanePatterns[i]
			}
			word := EvalWord(g.TT, g.Arity, words, g.A, g.B, g.C)
			for lane := 0; lane < 1<<n; lane++ {
				var vals [logic.MaxLUTArity]bool
				for i := 0; i < n; i++ {
					vals[i] = lane>>i&1 == 1
				}
				got := g.Eval(vals)
				if w := word>>lane&1 == 1; w != got {
					t.Fatalf("%s, inputs %v: EvalWord %v, Gate.Eval %v", name, vals[:n], w, got)
				}
				if r.arity == 0 {
					if k := logic.Kind(tt).Eval(vals[0], vals[1]); k != got {
						t.Fatalf("%s, inputs %v: Kind.Eval %v, Gate.Eval %v", name, vals[:n], k, got)
					}
				}
			}
			checkCanonical(t, name, &g)
			if checkRoundTrip(t, name, &g) {
				assembled++
			}
		}
	}
	// All 16 kinds, the 14 non-constant arity-2 tables and the 48
	// feasible arity-3 tables: the 62 LUT plans of TestPlanTablePinned.
	if assembled != 16+14+48 {
		t.Fatalf("%d records assembled, want %d", assembled, 16+14+48)
	}
	// An arity-0 table past the 16-kind alphabet is no gate: Validate,
	// and so Compile and Assemble, refuse it.
	for _, tt := range []logic.TT{logic.NumKinds, 0xFF} {
		nl := &circuit.Netlist{NumInputs: 2, Gates: []circuit.Gate{{A: 1, B: 2, TT: tt}}, Outputs: []circuit.NodeID{3}}
		if _, err := Compile(nl); err == nil {
			t.Fatalf("Compile accepted an arity-0 table %#x", tt)
		}
		if _, err := asm.Assemble(nl); err == nil {
			t.Fatalf("Assemble accepted an arity-0 table %#x", tt)
		}
	}
}

// checkCanonical runs g through canonical under every order of its
// operands' exec ids and requires the exec gate to compute g's function
// of the same operand values, with logic.Kind.SwapInputs as the table of
// a swapped classic gate.
func checkCanonical(t *testing.T, name string, g *circuit.Gate) {
	t.Helper()
	n := g.NumOperands()
	orders := [][]int32{{10, 20, 30}, {20, 10, 30}, {10, 30, 20}, {20, 30, 10}, {30, 10, 20}, {30, 20, 10}}
	for _, ids := range orders {
		if n == 2 && ids[2] != 30 {
			continue // only the first two ids matter
		}
		execOf := []int32{0, ids[0], ids[1], ids[2]}
		eg := canonical(g, execOf)
		if eg.arity != g.Arity || eg.a > eg.b || (n == 3 && eg.b > eg.c) || (n == 2 && eg.c != -1) {
			t.Fatalf("%s, exec ids %v: canonical gate %+v", name, ids[:n], eg)
		}
		if g.Arity == 0 {
			want := g.TT
			if ids[0] > ids[1] {
				want = logic.TTOf(g.Kind().SwapInputs())
			}
			if eg.tt != want {
				t.Fatalf("%s, exec ids %v: canonical table %#x, want %#x", name, ids[:2], eg.tt, want)
			}
		}
		// value[id] is the operand value the exec node id carries.
		for v := 0; v < 1<<n; v++ {
			value := map[int32]bool{}
			var vals [logic.MaxLUTArity]bool
			for i := 0; i < n; i++ {
				vals[i] = v>>(n-1-i)&1 == 1
				value[ids[i]] = vals[i]
			}
			bits := []bool{value[eg.a], value[eg.b], value[eg.c]}
			if got, want := eg.tt.EvalBits(bits[:n]...), g.Eval(vals); got != want {
				t.Fatalf("%s, exec ids %v, inputs %v: canonical gate %v, gate %v", name, ids[:n], vals[:n], got, want)
			}
		}
	}
}

// checkRoundTrip assembles the one-gate netlist over three inputs and
// disassembles it, requiring both netlists to agree on all eight input
// assignments. It reports whether the format accepted the record, which
// must be exactly when Validate does.
func checkRoundTrip(t *testing.T, name string, g *circuit.Gate) bool {
	t.Helper()
	nl := &circuit.Netlist{NumInputs: 3, Gates: []circuit.Gate{*g}, Outputs: []circuit.NodeID{4}}
	bin, err := asm.Assemble(nl)
	if valid := nl.Validate() == nil; (err == nil) != valid {
		t.Fatalf("%s: Assemble error %v, Validate accepts it: %v", name, err, valid)
	}
	if err != nil {
		return false
	}
	back, err := asm.Disassemble(bin)
	if err != nil {
		t.Fatalf("%s: Disassemble: %v", name, err)
	}
	for v := 0; v < 8; v++ {
		in := []bool{v&4 != 0, v&2 != 0, v&1 != 0}
		want, err := nl.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Fatalf("%s, inputs %v: disassembled record %+v gives %v, assembled %v", name, in, back.Gates[0], got[0], want[0])
		}
	}
	return true
}
