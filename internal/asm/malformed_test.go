package asm

import (
	"errors"
	"runtime"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// TestInspectTypedErrors pins the sentinel each class of malformed input
// maps to, so callers can rely on errors.Is across refactors.
func TestInspectTypedErrors(t *testing.T) {
	good, err := Assemble(halfAdder(t))
	if err != nil {
		t.Fatal(err)
	}

	truncated := good[:len(good)-5]
	if _, err := Inspect(truncated); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated header: got %v, want ErrTruncated", err)
	}

	if _, err := Inspect([]byte{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: got %v, want ErrEmpty", err)
	}

	badHeader := append([]byte(nil), good...)
	badHeader[15] = 0x80 // nonzero F1 in the header
	if _, err := Inspect(badHeader); !errors.Is(err, ErrBadHeader) {
		t.Errorf("bad header: got %v, want ErrBadHeader", err)
	}

	outOfOrder := craft(
		Instruction{F1: 0, F2: 1, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: 1, F2: 1, Type: 8},
		Instruction{F1: allOnes62, F2: 2, Type: 0x3},
		Instruction{F1: 1, F2: 1, Type: 8}, // gate after the output section
	)
	if _, err := Inspect(outOfOrder); !errors.Is(err, ErrBadLayout) {
		t.Errorf("out of order: got %v, want ErrBadLayout", err)
	}

	countLie := craft(
		Instruction{F1: 0, F2: 7, Type: 0}, // declares 7 gates
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: 1, F2: 1, Type: 8},
		Instruction{F1: allOnes62, F2: 2, Type: 0x3},
	)
	if _, err := Inspect(countLie); !errors.Is(err, ErrGateCount) {
		t.Errorf("gate-count lie: got %v, want ErrGateCount", err)
	}
}

// TestDisassembleTypedErrors: decodable framing but a malformed graph.
func TestDisassembleTypedErrors(t *testing.T) {
	dangling := craft(
		Instruction{F1: 0, F2: 1, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: MaxIndex, F2: 1, Type: 8}, // reads an index near 2^62
		Instruction{F1: allOnes62, F2: 2, Type: 0x3},
	)
	if _, err := Disassemble(dangling); !errors.Is(err, ErrMalformed) {
		t.Errorf("dangling 2^62-scale reference: got %v, want ErrMalformed", err)
	}
}

// TestAssembleIndexSpace: a netlist that would need node ids past
// circuit.MaxNodeID is refused before any buffer is sized — whether its
// own gates or the constant outputs Assemble materializes push it there.
func TestAssembleIndexSpace(t *testing.T) {
	for name, nl := range map[string]*circuit.Netlist{
		"gates": {
			Name:      "huge",
			NumInputs: circuit.MaxNodeID, // ids 1..MaxNodeID consumed by inputs
			Gates:     []circuit.Gate{{TT: logic.TTOf(logic.AND), A: 1, B: 2}},
			Outputs:   []circuit.NodeID{circuit.MaxNodeID + 1},
		},
		"constant output": {
			Name:      "full",
			NumInputs: circuit.MaxNodeID - 1, // the gate is node MaxNodeID
			Gates:     []circuit.Gate{{TT: logic.TTOf(logic.AND), A: 1, B: 2}},
			Outputs:   []circuit.NodeID{circuit.MaxNodeID, circuit.ConstTrue},
		},
	} {
		if _, err := Assemble(nl); !errors.Is(err, ErrIndexSpace) {
			t.Errorf("%s: index-space overflow: got %v, want ErrIndexSpace", name, err)
		}
	}
}

// indexSpaceBinaries are programs that are well formed except for one
// node id past circuit.MaxNodeID. Truncated to 32 bits, the operand
// 2^32+1 would alias input 1 and the output 2^31 would wrap negative.
var indexSpaceBinaries = []struct {
	name string
	bin  []byte
}{
	{"operand 2^32+1", craft(
		Instruction{F1: 0, F2: 1, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: 1<<32 + 1, F2: 1, Type: uint8(logic.AND)},
		Instruction{F1: allOnes62, F2: 2, Type: 0x3},
	)},
	{"output 2^31", craft(
		Instruction{F1: 0, F2: 1, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: 1, F2: 1, Type: uint8(logic.AND)},
		Instruction{F1: allOnes62, F2: 1 << 31, Type: 0x3},
	)},
	{"LUT third operand past MaxNodeID", lutProgram(func(in []Instruction) { in[5].F1 = circuit.MaxNodeID + 1 })},
}

// TestDecodeIndexSpace: a node id past circuit.MaxNodeID is an
// ErrIndexSpace defect for every entry point of the one decoder, and Lint
// reports it as an index-space error.
func TestDecodeIndexSpace(t *testing.T) {
	for _, tc := range indexSpaceBinaries {
		if _, err := Disassemble(tc.bin); !errors.Is(err, ErrIndexSpace) {
			t.Errorf("%s: Disassemble: got %v, want ErrIndexSpace", tc.name, err)
		}
		if _, err := Inspect(tc.bin); !errors.Is(err, ErrIndexSpace) {
			t.Errorf("%s: Inspect: got %v, want ErrIndexSpace", tc.name, err)
		}
		if _, err := Listing(tc.bin); !errors.Is(err, ErrIndexSpace) {
			t.Errorf("%s: Listing: got %v, want ErrIndexSpace", tc.name, err)
		}
		rep := Lint(tc.bin)
		if rep.Err() == nil || len(rep.Diags) == 0 {
			t.Fatalf("%s: Lint found no error:\n%s", tc.name, rep)
		}
		if d := rep.Diags[0]; d.Severity != circuit.SevError || d.Code != circuit.CodeIndexSpace {
			t.Errorf("%s: Lint's first finding is %s, want an %s error", tc.name, d, circuit.CodeIndexSpace)
		}
	}
}

// TestLyingHeaderBoundedAlloc: a 3-record stream whose header declares
// MaxIndex gates is a gate-count error, and the decoder sizes its gate
// slice by the records in the stream, never by the header.
func TestLyingHeaderBoundedAlloc(t *testing.T) {
	bin := craft(
		Instruction{F1: 0, F2: MaxIndex, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: allOnes62, F2: 1, Type: 0x3},
	)
	for name, decode := range map[string]func([]byte) error{
		"Inspect":     func(b []byte) error { _, err := Inspect(b); return err },
		"Disassemble": func(b []byte) error { _, err := Disassemble(b); return err },
		"Listing":     func(b []byte) error { _, err := Listing(b); return err },
	} {
		if err := decode(bin); !errors.Is(err, ErrGateCount) {
			t.Errorf("%s: got %v, want ErrGateCount", name, err)
		}
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Disassemble(bin); err == nil {
			t.Fatal("lying header accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 32*uint64(len(bin)) {
		t.Fatalf("decoding a %d-byte stream allocated %d bytes", len(bin), perRun)
	}
}

// FuzzInspect throws arbitrary bytes at the decoder's four entry points.
// Nothing may panic, and load and lint must agree: Disassemble succeeds
// exactly when Lint finds no error-severity defect.
func FuzzInspect(f *testing.F) {
	good, err := Assemble(halfAdderForFuzz())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)-5])                        // truncated
	f.Add(craft(Instruction{F1: 1, F2: 0, Type: 0})) // bad header
	f.Add(craft(Instruction{F1: 0, F2: 9, Type: 0})) // gate-count lie
	f.Add(craft(                                     // cyclic
		Instruction{F1: 0, F2: 2, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: 3, F2: 1, Type: 8},
		Instruction{F1: 2, F2: 1, Type: 14},
		Instruction{F1: allOnes62, F2: 3, Type: 0x3},
	))
	f.Add(craft( // marker with unknown nibble
		Instruction{F1: 0, F2: 0, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: allOnes62, F2: 1, Type: 0x7},
	))
	f.Add(craft( // gate reading the top of the index space
		Instruction{F1: 0, F2: 1, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: MaxIndex, F2: MaxIndex, Type: 8},
		Instruction{F1: allOnes62, F2: 2, Type: 0x3},
	))
	lutGood, err := Assemble(lutAdder(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(lutGood)                                                 // well-formed LUT program
	f.Add(lutGood[:len(lutGood)-3*InstructionSize])                // LUT lead ends the stream
	f.Add(lutProgram(func(in []Instruction) { in[5].Type = 0 }))   // arity 0
	f.Add(lutProgram(func(in []Instruction) { in[5].Type = 0x9 })) // arity over max
	f.Add(lutProgram(func(in []Instruction) { in[5].F2 = 0x100 })) // wide table
	f.Add(lutProgram(func(in []Instruction) { in[5].F2 = 0x80 }))  // infeasible AND3
	f.Add(lutProgram(func(in []Instruction) { in[5].F2 = 0xFF }))  // constant table
	f.Add(craft(                                                   // output record re-typed to an unknown marker nibble
		Instruction{F1: 0, F2: 1, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: 1, F2: 1, Type: 8},
		Instruction{F1: allOnes62, F2: 2, Type: 0x7},
	))
	f.Add(craft( // input-nibble marker whose F2 is not all ones
		Instruction{F1: 0, F2: 1, Type: 0},
		Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF},
		Instruction{F1: 1, F2: 1, Type: 8},
		Instruction{F1: allOnes62, F2: 2, Type: 0xF},
	))

	for _, tc := range indexSpaceBinaries {
		f.Add(tc.bin)
	}

	f.Fuzz(func(t *testing.T, bin []byte) {
		Inspect(bin)
		Listing(bin)
		_, err := Disassemble(bin)
		if lintErr := Lint(bin).Err(); (err == nil) != (lintErr == nil) {
			t.Fatalf("load and lint disagree: Disassemble: %v; Lint: %v", err, lintErr)
		}
	})
}

// halfAdderForFuzz rebuilds the half adder without a *testing.T, for use
// as a fuzz seed.
func halfAdderForFuzz() *circuit.Netlist {
	b := circuit.NewBuilder("half-adder", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	b.Output("s", b.Xor(x, y))
	b.Output("c", b.And(x, y))
	return b.MustBuild()
}
