package asm

import (
	"errors"
	"strings"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// lutAdder builds a full adder through the LUT builder: sum = parity,
// carry = majority — two arity-3 LUT gates instead of five 2-input gates.
func lutAdder(t testing.TB) *circuit.Netlist {
	b := circuit.NewBuilder("lut_adder", circuit.AllOptimizations())
	a := b.Input("a")
	x := b.Input("b")
	c := b.Input("cin")
	b.Output("sum", b.LUT(0x96, a, x, c))
	b.Output("cout", b.LUT(0xE8, a, x, c))
	return b.MustBuild()
}

func TestLUTBinaryLayout(t *testing.T) {
	bin, err := Assemble(lutAdder(t))
	if err != nil {
		t.Fatal(err)
	}
	// header + 3 inputs + 2 LUTs × 2 words + 2 outputs = 10 instructions.
	if len(bin) != 10*InstructionSize {
		t.Fatalf("binary is %d words, want 10", len(bin)/InstructionSize)
	}
	header := decode(bin[:InstructionSize])
	if header.F2 != 2 {
		t.Fatalf("header declares %d gates, want 2 logical gates", header.F2)
	}
	lead := decode(bin[4*InstructionSize:])
	ext := decode(bin[5*InstructionSize:])
	if lead.Type != 0x0 || lead.F1 != 1 || lead.F2 != 2 {
		t.Fatalf("LUT lead = %+v", lead)
	}
	if ext.Type != 3 || ext.F1 != 3 || ext.F2 != 0x96 {
		t.Fatalf("LUT extension = %+v", ext)
	}

	info, err := Inspect(bin)
	if err != nil {
		t.Fatal(err)
	}
	if info.Gates != 2 || info.LUTs != 2 || info.Inputs != 3 || info.Outputs != 2 {
		t.Fatalf("info = %+v", info)
	}
}

func TestLUTRoundTrip(t *testing.T) {
	nl := lutAdder(t)
	bin, err := Assemble(nl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Gates) != len(nl.Gates) {
		t.Fatalf("gate count %d, want %d", len(back.Gates), len(nl.Gates))
	}
	for i, g := range nl.Gates {
		if back.Gates[i] != g {
			t.Fatalf("gate %d: %+v vs %+v", i, back.Gates[i], g)
		}
	}
	for v := 0; v < 8; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0}
		want, _ := nl.Evaluate(in)
		got, _ := back.Evaluate(in)
		if want[0] != got[0] || want[1] != got[1] {
			t.Fatalf("outputs differ on %v", in)
		}
	}
}

func TestLUTListing(t *testing.T) {
	bin, _ := Assemble(lutAdder(t))
	text, err := Listing(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "lut3    #4 = 0x96(1, 2, 3)") {
		t.Fatalf("listing missing the LUT line:\n%s", text)
	}
}

// TestFalseGateReencoded: the 0x0 nibble now marks LUT leads, so a
// residual constant-FALSE gate assembles as the equivalent XOR(x, x).
func TestFalseGateReencoded(t *testing.T) {
	nl := &circuit.Netlist{
		Name:      "false-gate",
		NumInputs: 1,
		Gates:     []circuit.Gate{{TT: logic.TTOf(logic.False), A: 1, B: 1}},
		Outputs:   []circuit.NodeID{2},
	}
	bin, err := Assemble(nl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	if back.Gates[0].Kind() != logic.XOR {
		t.Fatalf("FALSE gate re-encoded as %v, want XOR", back.Gates[0].Kind())
	}
	for _, v := range []bool{false, true} {
		out, _ := back.Evaluate([]bool{v})
		if out[0] {
			t.Fatalf("constant-false program output true on input %v", v)
		}
	}
}

// lutProgram hand-crafts: header, 3 inputs, one LUT (lead + ext), output.
// The mut callback can corrupt the instruction slice before encoding.
func lutProgram(mut func(insts []Instruction)) []byte {
	insts := []Instruction{
		{F1: 0, F2: 1, Type: 0},                   // header: 1 gate
		{F1: allOnes62, F2: allOnes62, Type: 0xF}, // inputs 1..3
		{F1: allOnes62, F2: allOnes62, Type: 0xF},
		{F1: allOnes62, F2: allOnes62, Type: 0xF},
		{F1: 1, F2: 2, Type: 0x0},    // LUT lead
		{F1: 3, F2: 0xE8, Type: 0x3}, // extension: arity 3, majority
		{F1: allOnes62, F2: 4, Type: 0x3},
	}
	if mut != nil {
		mut(insts)
	}
	return craft(insts...)
}

func TestLUTMalformed(t *testing.T) {
	if _, err := Inspect(lutProgram(nil)); err != nil {
		t.Fatalf("well-formed LUT program rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func([]Instruction)
		bin  []byte
		want error
	}{
		{name: "arity-0", mut: func(in []Instruction) { in[5].Type = 0 }, want: ErrLUTArity},
		{name: "arity-1", mut: func(in []Instruction) { in[5].Type = 1 }, want: ErrLUTArity},
		{name: "arity-over-max", mut: func(in []Instruction) { in[5].Type = 0x9 }, want: ErrLUTArity},
		{name: "arity-2-with-third-operand", mut: func(in []Instruction) { in[5].Type = 2 }, want: ErrLUTArity},
		{name: "arity-3-missing-operand", mut: func(in []Instruction) { in[5].F1 = allOnes62 }, want: ErrLUTTruncated},
		{name: "wide-table-arity-2", mut: func(in []Instruction) {
			in[5].Type = 2
			in[5].F1 = allOnes62
			in[5].F2 = 0x1F0 // 9 bits into a 4-bit table
		}, want: ErrLUTTable},
		{name: "wide-table-arity-3", mut: func(in []Instruction) { in[5].F2 = 0x100 }, want: ErrLUTTable},
		// Splicing out the extension makes the output record follow the lead.
		{name: "truncated-before-output", bin: craft(
			Instruction{F1: 0, F2: 1, Type: 0},
			Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
			Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
			Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
			Instruction{F1: 1, F2: 2, Type: 0x0},
			Instruction{F1: allOnes62, F2: 4, Type: 0x3},
		), want: ErrLUTTruncated},
		{name: "lead-ends-program", bin: lutProgram(nil)[:5*InstructionSize], want: ErrLUTTruncated},
	}
	for _, c := range cases {
		bin := c.bin
		if bin == nil {
			bin = lutProgram(c.mut)
		}
		if _, err := Inspect(bin); !errors.Is(err, c.want) {
			t.Errorf("%s: Inspect err %v, want %v", c.name, err, c.want)
		}
		if _, err := Disassemble(bin); err == nil {
			t.Errorf("%s: Disassemble accepted a malformed LUT program", c.name)
		}
		if rep := Lint(bin); rep.Err() == nil {
			t.Errorf("%s: Lint found no errors", c.name)
		}
	}

	// Note: in[5].F1 = allOnes62 with Type 0x3 is indistinguishable from a
	// missing extension followed by an output record, hence ErrLUTTruncated
	// above rather than ErrLUTArity.

	// An infeasible table decodes structurally but fails netlist
	// validation (and circuit lint) — AND3 has no single-bootstrap plan.
	infeasible := lutProgram(func(in []Instruction) { in[5].F2 = 0x80 })
	if _, err := Inspect(infeasible); err != nil {
		t.Fatalf("Inspect rejects framing-valid infeasible table: %v", err)
	}
	if _, err := Disassemble(infeasible); !errors.Is(err, ErrMalformed) {
		t.Errorf("infeasible table: Disassemble err %v, want ErrMalformed", err)
	}
	rep := Lint(infeasible)
	found := false
	for _, d := range rep.Diags {
		if d.Code == circuit.CodeInfeasibleLUT {
			found = true
		}
	}
	if !found {
		t.Errorf("Lint missed infeasible-lut; diags: %v", rep.Diags)
	}
}

// TestLintLUTTolerance: the tolerant linter reports LUT defects with
// stable codes instead of bailing at the first framing error.
func TestLintLUTTolerance(t *testing.T) {
	cases := []struct {
		name string
		bin  []byte
		code string
	}{
		{"bad-arity", lutProgram(func(in []Instruction) { in[5].Type = 0x9 }), circuit.CodeBadLUTArity},
		{"wide-table", lutProgram(func(in []Instruction) { in[5].F2 = 0x100 }), circuit.CodeWideLUTTable},
		{"truncated", lutProgram(nil)[:5*InstructionSize], CodeLUTTruncated},
	}
	for _, c := range cases {
		rep := Lint(c.bin)
		found := false
		for _, d := range rep.Diags {
			if d.Code == c.code {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: code %s not reported; diags: %v", c.name, c.code, rep.Diags)
		}
	}
}
