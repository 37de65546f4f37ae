// Package asm implements the PyTFHE program binary format of the paper
// (Fig. 5): a sequence of 128-bit instructions — one header, one input
// instruction per primary input, one gate instruction per gate, and one
// output instruction per output — using a sequential gate-indexing scheme
// that supports up to 2^62 gates. In memory a node id is 32 bits, so this
// package assembles and loads programs of up to circuit.MaxNodeID nodes
// and rejects any id past that bound with ErrIndexSpace.
//
// Instruction layout (bit 127 .. bit 0):
//
//	[127:66] field1 (62 bits)   [65:4] field2 (62 bits)   [3:0] gate type
//
//	Header: field1 = 0,          field2 = total gate count, type = 0x0
//	Input:  field1 = all ones,   field2 = all ones,         type = 0xF
//	Gate:   field1 = input0 idx, field2 = input1 idx,       type = truth table
//	Output: field1 = all ones,   field2 = producing index,  type = 0x3
//
// Indices are implicit and sequential: the i-th input instruction reserves
// index i (starting at 1), and the j-th gate instruction receives index
// NumInputs + j. Each 128-bit instruction serializes as 16 little-endian
// bytes, low quadword first.
//
// Multi-input LUT gates extend the format using the type nibble 0x0,
// which the 2-input alphabet wastes on the constant-FALSE gate (Assemble
// rewrites those to the equivalent XOR(x, x), so 0x0 never names a
// classic gate record). A LUT is a two-word record occupying ONE gate
// index:
//
//	LUT lead:      field1 = input0 idx,            field2 = input1 idx,  type = 0x0
//	LUT extension: field1 = input2 idx / all ones, field2 = truth table, type = arity
//
// The extension word immediately follows its lead; its type nibble holds
// the arity (2..logic.MaxLUTArity), field1 holds the third operand for
// arity 3 and the all-ones marker for arity 2, and field2 holds the truth
// table (bit x₀·2^(k-1)|…|x₍k₋₁₎ = f(x₀..x₍k₋₁₎), at most 2^arity bits).
// The header's gate count stays the count of logical gates, not words.
//
// One decoder reads the format: a single pass that keeps going past bad
// records and returns the recovered netlist with every binary-level
// defect, each wrapping one of the sentinels below. Disassemble (and so
// core.Load), Inspect, Listing and Lint all stand on it, so a binary the
// linter rejects never loads and one it passes always does.
//
//pytfhe:errorcritical
package asm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// Typed decode/encode failures. Callers can classify malformed programs
// with errors.Is; every error returned by Assemble, Inspect, Disassemble
// and Lint wraps one of these sentinels.
var (
	// ErrTruncated: the byte length is not a whole number of instructions.
	ErrTruncated = errors.New("asm: truncated or misaligned program")
	// ErrEmpty: zero instructions (not even a header).
	ErrEmpty = errors.New("asm: empty program")
	// ErrBadHeader: the first instruction is not a valid header.
	ErrBadHeader = errors.New("asm: malformed header instruction")
	// ErrBadLayout: input/gate/output records out of the mandated order.
	ErrBadLayout = errors.New("asm: instruction stream out of order")
	// ErrGateCount: the header's gate count disagrees with the stream.
	ErrGateCount = errors.New("asm: header gate count mismatch")
	// ErrIndexSpace: a node id, or the node count, past circuit.MaxNodeID.
	ErrIndexSpace = errors.New("asm: program exceeds the circuit.MaxNodeID node space")
	// ErrMalformed: the decoded program violates netlist invariants
	// (dangling references, forward references, bad ports).
	ErrMalformed = errors.New("asm: decoded program is malformed")
	// ErrLUTTruncated: a LUT lead record without its extension word.
	ErrLUTTruncated = errors.New("asm: LUT record missing its truth-table extension word")
	// ErrLUTArity: a LUT extension with arity outside [2, logic.MaxLUTArity]
	// or whose third-operand field disagrees with the declared arity.
	ErrLUTArity = errors.New("asm: LUT extension word declares an invalid arity")
	// ErrLUTTable: a LUT truth table wider than 2^arity bits.
	ErrLUTTable = errors.New("asm: LUT truth table wider than 2^arity bits")
)

// InstructionSize is the size of one encoded instruction in bytes.
const InstructionSize = 16

// MaxIndex is the largest node index the format can encode (2^62 - 2; the
// all-ones value is the input/output marker). Programs are further bounded
// by circuit.MaxNodeID.
const MaxIndex = allOnes62 - 1

const allOnes62 = uint64(1)<<62 - 1

// Instruction is one decoded 128-bit PyTFHE instruction.
type Instruction struct {
	F1, F2 uint64 // 62-bit fields
	Type   uint8  // 4-bit gate type
}

// Kind classifies an instruction within a program stream.
type Kind uint8

// Instruction kinds.
const (
	KindHeader Kind = iota
	KindInput
	KindGate
	KindOutput
)

func (k Kind) String() string {
	switch k {
	case KindHeader:
		return "header"
	case KindInput:
		return "input"
	case KindGate:
		return "gate"
	case KindOutput:
		return "output"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Classify determines the instruction kind from its markers. The header is
// positional (first instruction) and cannot be distinguished by content
// alone, so Classify never returns KindHeader. Every other marker record
// (F1 all ones) classifies as KindOutput; the decoder rejects those whose
// type nibble is not the output marker 0x3.
func (in Instruction) Classify() Kind {
	if in.F1 == allOnes62 {
		if in.Type == 0xF && in.F2 == allOnes62 {
			return KindInput
		}
		return KindOutput
	}
	return KindGate
}

// encode packs the instruction into dst[0:16].
func (in Instruction) encode(dst []byte) {
	lo := in.F2<<4 | uint64(in.Type&0xF)
	hi := in.F1<<2 | in.F2>>60
	binary.LittleEndian.PutUint64(dst[0:8], lo)
	binary.LittleEndian.PutUint64(dst[8:16], hi)
}

// decode unpacks an instruction from src[0:16].
func decode(src []byte) Instruction {
	lo := binary.LittleEndian.Uint64(src[0:8])
	hi := binary.LittleEndian.Uint64(src[8:16])
	return Instruction{
		Type: uint8(lo & 0xF),
		F2:   (lo>>4 | hi<<60) & allOnes62,
		F1:   hi >> 2,
	}
}

// Assemble encodes a netlist as a PyTFHE program binary. Constant outputs
// (which the optimizing frontend can produce) are materialized as
// XOR/XNOR(x, x) gates since the format has no immediate operands; this
// requires at least one primary input.
func Assemble(nl *circuit.Netlist) ([]byte, error) {
	if err := checkNodeCount(nl.NumInputs, len(nl.Gates)); err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	gates := nl.Gates
	outputs := nl.Outputs

	// Materialize constant outputs if present.
	var constTrue, constFalse circuit.NodeID
	needsConst := false
	for _, o := range outputs {
		if o.IsConst() {
			needsConst = true
		}
	}
	if needsConst {
		if nl.NumInputs == 0 {
			return nil, fmt.Errorf("asm: netlist %q has constant outputs but no inputs to anchor them", nl.Name)
		}
		gates = append([]circuit.Gate(nil), gates...)
		outputs = append([]circuit.NodeID(nil), outputs...)
		for i, o := range outputs {
			switch o {
			case circuit.ConstTrue:
				if constTrue == 0 {
					gates = append(gates, circuit.Gate{TT: logic.TTOf(logic.XNOR), A: 1, B: 1})
					constTrue = circuit.NodeID(nl.NumInputs + len(gates))
				}
				outputs[i] = constTrue
			case circuit.ConstFalse:
				if constFalse == 0 {
					gates = append(gates, circuit.Gate{TT: logic.TTOf(logic.XOR), A: 1, B: 1})
					constFalse = circuit.NodeID(nl.NumInputs + len(gates))
				}
				outputs[i] = constFalse
			}
		}
	}

	if err := checkNodeCount(nl.NumInputs, len(gates)); err != nil {
		return nil, err // the materialized constants pushed it past the bound
	}

	luts := 0
	for i := range gates {
		if gates[i].IsLUT() {
			luts++
		}
	}

	n := 1 + nl.NumInputs + len(gates) + luts + len(outputs)
	buf := make([]byte, n*InstructionSize)
	pos := 0
	put := func(in Instruction) {
		in.encode(buf[pos : pos+InstructionSize])
		pos += InstructionSize
	}

	put(Instruction{F1: 0, F2: uint64(len(gates)), Type: 0}) // header
	for i := 0; i < nl.NumInputs; i++ {
		put(Instruction{F1: allOnes62, F2: allOnes62, Type: 0xF})
	}
	for i := range gates {
		g := &gates[i]
		switch {
		case g.IsLUT():
			put(Instruction{F1: uint64(g.A), F2: uint64(g.B), Type: 0x0})
			third := allOnes62
			if g.Arity >= 3 {
				third = uint64(g.C)
			}
			put(Instruction{F1: third, F2: uint64(g.TT), Type: g.Arity})
		case g.Kind() == logic.False:
			// The 0x0 nibble is the LUT lead marker; a constant-FALSE gate
			// is re-encoded as the equivalent XOR(x, x).
			put(Instruction{F1: uint64(g.A), F2: uint64(g.A), Type: uint8(logic.XOR)})
		default:
			put(Instruction{F1: uint64(g.A), F2: uint64(g.B), Type: uint8(g.TT)})
		}
	}
	for _, o := range outputs {
		put(Instruction{F1: allOnes62, F2: uint64(o), Type: 0x3})
	}
	return buf, nil
}

// checkNodeCount refuses a netlist of more than circuit.MaxNodeID nodes.
func checkNodeCount(inputs, gates int) error {
	if inputs+gates > circuit.MaxNodeID {
		return fmt.Errorf("%w: %d inputs + %d gates exceed %d nodes", ErrIndexSpace, inputs, gates, circuit.MaxNodeID)
	}
	return nil
}

// decodeLUTExt validates the extension word following a LUT lead and
// returns the decoded (third operand field, table, arity). The third
// operand field is 0 for arity-2 LUTs; the caller range-checks it.
func decodeLUTExt(ext Instruction, at int) (uint64, logic.TT, uint8, error) {
	arity := int(ext.Type)
	switch {
	case ext.F1 == allOnes62 && ext.Type == 0x3:
		// An output record where the extension should be: the lead was the
		// last word of the gate section.
		return 0, 0, 0, fmt.Errorf("%w: instruction %d: output record where the extension word belongs", ErrLUTTruncated, at)
	case ext.F1 == allOnes62 && ext.F2 == allOnes62 && ext.Type == 0xF:
		return 0, 0, 0, fmt.Errorf("%w: instruction %d: input record where the extension word belongs", ErrLUTTruncated, at)
	case arity < 2 || arity > logic.MaxLUTArity:
		return 0, 0, 0, fmt.Errorf("%w: instruction %d: arity %d outside [2, %d]", ErrLUTArity, at, arity, logic.MaxLUTArity)
	case arity == 2 && ext.F1 != allOnes62:
		return 0, 0, 0, fmt.Errorf("%w: instruction %d: arity-2 LUT carries a third operand (%d)", ErrLUTArity, at, ext.F1)
	case arity >= 3 && ext.F1 == allOnes62:
		return 0, 0, 0, fmt.Errorf("%w: instruction %d: arity-%d LUT lacks its third operand", ErrLUTArity, at, arity)
	case ext.F2 > uint64(logic.TTMask(arity)):
		return 0, 0, 0, fmt.Errorf("%w: instruction %d: table %#x exceeds the %d-bit mask of arity %d", ErrLUTTable, at, ext.F2, 1<<arity, arity)
	}
	var third uint64
	if arity >= 3 {
		third = ext.F1
	}
	return third, logic.TT(ext.F2), uint8(arity), nil
}

// defect is one binary-level finding of the decoder: its lint code and
// an error wrapping the matching sentinel.
type defect struct {
	code string
	err  error
}

// decodeProgram is the one decoder of the program format: a single pass
// over bin that keeps going past bad records, returning the recovered
// netlist (unnamed, ports unnamed), its LUT count, and every binary-level
// defect in stream order. A framing defect (truncation, no header, bad
// header) stops it before any record is read and leaves nl nil. Disassemble,
// Inspect, Listing and Lint all stand on it, so they accept the same
// binaries.
func decodeProgram(bin []byte) (nl *circuit.Netlist, luts int, defects []defect) {
	fail := func(code string, err error) { defects = append(defects, defect{code, err}) }
	// nodeID narrows a 62-bit field to a node id. A value past MaxNodeID
	// is an index-space defect and decodes as Invalid, which the netlist
	// checks then report as unwired, so it can never alias a real node.
	// The decoder stops before the node count passes MaxNodeID, so such
	// an id also dangles: the defect wraps ErrMalformed as well.
	nodeID := func(v uint64, at int, what string) circuit.NodeID {
		if v > circuit.MaxNodeID {
			fail(circuit.CodeIndexSpace, fmt.Errorf("%w: instruction %d: %s %d names no node (%w)", ErrIndexSpace, at, what, v, ErrMalformed))
			return circuit.Invalid
		}
		return circuit.NodeID(v)
	}
	if len(bin)%InstructionSize != 0 {
		fail(CodeTruncated, fmt.Errorf("%w: %d bytes is not a multiple of %d", ErrTruncated, len(bin), InstructionSize))
		return nil, 0, defects
	}
	n := len(bin) / InstructionSize
	if n == 0 {
		fail(CodeEmpty, ErrEmpty)
		return nil, 0, defects
	}
	header := decode(bin)
	if header.F1 != 0 || header.Type != 0 {
		fail(CodeBadHeader, fmt.Errorf("%w: F1=%d type=%#x", ErrBadHeader, header.F1, header.Type))
		return nil, 0, defects
	}
	// Presized to what the stream can hold, so a well-formed program
	// allocates its gates once and a lying header cannot inflate it.
	nl = &circuit.Netlist{Gates: make([]circuit.Gate, 0, min(header.F2, uint64(n-1)))}
	phase := KindInput
	for i := 1; i < n; i++ {
		inst := decode(bin[i*InstructionSize:])
		kind := inst.Classify()
		if kind != KindOutput && nl.NumNodes() == circuit.MaxNodeID {
			// An input or gate record past this one would be node
			// MaxNodeID+1, which no netlist may hold.
			fail(circuit.CodeIndexSpace, fmt.Errorf("%w: instruction %d: more than %d input and gate records", ErrIndexSpace, i, circuit.MaxNodeID))
			return nl, luts, defects
		}
		switch kind {
		case KindInput:
			if phase != KindInput {
				fail(CodeBadLayout, fmt.Errorf("%w: instruction %d: input record after the input section; indices cannot be assigned", ErrBadLayout, i))
				continue
			}
			nl.NumInputs++
		case KindOutput:
			if inst.Type != 0x3 {
				fail(circuit.CodeBadGateType, fmt.Errorf("%w: instruction %d: marker record with type nibble %#x is neither an input (0xF, F2 all ones) nor an output (0x3)", ErrBadLayout, i, inst.Type))
				continue
			}
			phase = KindOutput
			nl.Outputs = append(nl.Outputs, nodeID(inst.F2, i, "output"))
		default:
			if phase == KindOutput {
				fail(CodeBadLayout, fmt.Errorf("%w: instruction %d: gate record after the output section", ErrBadLayout, i))
				continue
			}
			phase = KindGate
			g := circuit.Gate{TT: logic.TT(inst.Type), A: nodeID(inst.F1, i, "operand"), B: nodeID(inst.F2, i, "operand")}
			if inst.Type == 0x0 {
				// LUT lead: the next word is its extension, consumed
				// positionally (it may carry marker-looking field values).
				if i+1 >= n {
					fail(CodeLUTTruncated, fmt.Errorf("%w: instruction %d ends the program", ErrLUTTruncated, i))
					continue
				}
				third, tt, arity, err := decodeLUTExt(decode(bin[(i+1)*InstructionSize:]), i+1)
				if errors.Is(err, ErrLUTTruncated) {
					// The next record is a marker, not an extension:
					// report it and let it reparse as itself.
					fail(CodeLUTTruncated, err)
					continue
				}
				i++ // the extension word is consumed whatever it holds
				if err != nil {
					code := circuit.CodeBadLUTArity
					if errors.Is(err, ErrLUTTable) {
						code = circuit.CodeWideLUTTable
					}
					fail(code, err)
					continue
				}
				g.C, g.TT, g.Arity = nodeID(third, i, "third operand"), tt, arity
				luts++
			}
			nl.Gates = append(nl.Gates, g)
		}
	}
	if uint64(len(nl.Gates)) != header.F2 {
		fail(CodeGateCount, fmt.Errorf("%w: header declares %d gates, stream holds %d", ErrGateCount, header.F2, len(nl.Gates)))
	}
	return nl, luts, defects
}

// firstErr is the error of the first defect, nil for a well-formed stream.
func firstErr(defects []defect) error {
	if len(defects) == 0 {
		return nil
	}
	return defects[0].err
}

// Info summarizes a program binary without validating its gate graph.
type Info struct {
	Instructions int
	Inputs       int
	Gates        int // logical gates (a LUT pair counts once)
	LUTs         int // multi-input LUT records among Gates
	Outputs      int
}

// Inspect validates the framing of a program binary and returns counts.
func Inspect(bin []byte) (Info, error) {
	nl, luts, defects := decodeProgram(bin)
	if nl == nil {
		return Info{}, firstErr(defects)
	}
	return Info{
		Instructions: len(bin) / InstructionSize,
		Inputs:       nl.NumInputs,
		Gates:        len(nl.Gates),
		LUTs:         luts,
		Outputs:      len(nl.Outputs),
	}, firstErr(defects)
}

// Disassemble decodes a program binary back into a netlist. Port names are
// synthesized (in[i], out[i]) since the format does not carry them.
func Disassemble(bin []byte) (*circuit.Netlist, error) {
	nl, _, defects := decodeProgram(bin)
	if err := firstErr(defects); err != nil {
		return nil, err
	}
	nl.Name = "disassembled"
	nl.InputNames = make([]string, nl.NumInputs)
	for i := range nl.InputNames {
		nl.InputNames[i] = fmt.Sprintf("in[%d]", i)
	}
	nl.OutputNames = make([]string, len(nl.Outputs))
	for i := range nl.OutputNames {
		nl.OutputNames[i] = fmt.Sprintf("out[%d]", i)
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return nl, nil
}

// Listing renders a human-readable disassembly, one instruction per line
// (a LUT's two words share one line).
func Listing(bin []byte) (string, error) {
	nl, _, defects := decodeProgram(bin)
	if err := firstErr(defects); err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "header  gates=%d\n", len(nl.Gates))
	for i := 1; i <= nl.NumInputs; i++ {
		fmt.Fprintf(&sb, "input   #%d\n", i)
	}
	for i := range nl.Gates {
		g, id := &nl.Gates[i], nl.GateID(i)
		switch {
		case g.Arity >= 3:
			fmt.Fprintf(&sb, "lut%d    #%d = %#x(%d, %d, %d)\n", g.Arity, id, uint8(g.TT), g.A, g.B, g.C)
		case g.IsLUT():
			fmt.Fprintf(&sb, "lut%d    #%d = %#x(%d, %d)\n", g.Arity, id, uint8(g.TT), g.A, g.B)
		default:
			fmt.Fprintf(&sb, "gate    #%d = %s(%d, %d)\n", id, g.Kind(), g.A, g.B)
		}
	}
	for _, o := range nl.Outputs {
		fmt.Fprintf(&sb, "output  <- #%d\n", o)
	}
	return sb.String(), nil
}
