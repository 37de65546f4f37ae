// Package asm implements the PyTFHE program binary format of the paper
// (Fig. 5): a sequence of 128-bit instructions — one header, one input
// instruction per primary input, one gate instruction per gate, and one
// output instruction per output — using a sequential gate-indexing scheme
// that supports up to 2^62 gates.
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
//pytfhe:errorcritical
package asm

import (
	"encoding/binary"
	"errors"
	"fmt"

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
	// ErrIndexSpace: the program needs indices past the 62-bit limit.
	ErrIndexSpace = errors.New("asm: program exceeds the 2^62 index space")
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

// MaxIndex is the largest encodable node index (2^62 - 2; the all-ones
// value is the input/output marker).
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
// alone, so Classify never returns KindHeader.
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
					gates = append(gates, circuit.Gate{Kind: logic.XNOR, A: 1, B: 1})
					constTrue = circuit.NodeID(nl.NumInputs + len(gates))
				}
				outputs[i] = constTrue
			case circuit.ConstFalse:
				if constFalse == 0 {
					gates = append(gates, circuit.Gate{Kind: logic.XOR, A: 1, B: 1})
					constFalse = circuit.NodeID(nl.NumInputs + len(gates))
				}
				outputs[i] = constFalse
			}
		}
	}

	if uint64(nl.NumInputs)+uint64(len(gates)) > MaxIndex {
		return nil, fmt.Errorf("%w: %d inputs + %d gates", ErrIndexSpace, nl.NumInputs, len(gates))
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
	for _, g := range gates {
		switch {
		case g.IsLUT():
			put(Instruction{F1: uint64(g.A), F2: uint64(g.B), Type: 0x0})
			third := allOnes62
			if g.Arity >= 3 {
				third = uint64(g.C)
			}
			put(Instruction{F1: third, F2: uint64(g.TT), Type: g.Arity})
		case g.Kind == logic.False:
			// The 0x0 nibble is the LUT lead marker; a constant-FALSE gate
			// is re-encoded as the equivalent XOR(x, x).
			put(Instruction{F1: uint64(g.A), F2: uint64(g.A), Type: uint8(logic.XOR)})
		default:
			put(Instruction{F1: uint64(g.A), F2: uint64(g.B), Type: uint8(g.Kind)})
		}
	}
	for _, o := range outputs {
		put(Instruction{F1: allOnes62, F2: uint64(o), Type: 0x3})
	}
	return buf, nil
}

// decodeLUTExt validates the extension word following a LUT lead and
// returns the decoded (third operand, table, arity). The third operand is
// 0 for arity-2 LUTs.
func decodeLUTExt(ext Instruction, at int) (circuit.NodeID, logic.TT, uint8, error) {
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
	var third circuit.NodeID
	if arity >= 3 {
		third = circuit.NodeID(ext.F1)
	}
	return third, logic.TT(ext.F2), uint8(arity), nil
}

// Info summarizes a program binary without fully decoding it.
type Info struct {
	Instructions int
	Inputs       int
	Gates        int // logical gates (a LUT pair counts once)
	LUTs         int // multi-input LUT records among Gates
	Outputs      int
}

// Inspect validates the framing of a program binary and returns counts.
func Inspect(bin []byte) (Info, error) {
	var info Info
	if len(bin)%InstructionSize != 0 {
		return info, fmt.Errorf("%w: %d bytes is not a multiple of %d", ErrTruncated, len(bin), InstructionSize)
	}
	n := len(bin) / InstructionSize
	if n == 0 {
		return info, ErrEmpty
	}
	info.Instructions = n
	header := decode(bin[:InstructionSize])
	if header.F1 != 0 || header.Type != 0 {
		return info, fmt.Errorf("%w: F1=%d type=%#x", ErrBadHeader, header.F1, header.Type)
	}
	declaredGates := header.F2

	i := 1
	for ; i < n; i++ {
		if decode(bin[i*InstructionSize:]).Classify() != KindInput {
			break
		}
		info.Inputs++
	}
	for ; i < n; i++ {
		inst := decode(bin[i*InstructionSize:])
		if inst.Classify() != KindGate {
			break
		}
		info.Gates++
		if inst.Type == 0x0 {
			// LUT lead: consume and validate the extension word.
			if i+1 >= n {
				return info, fmt.Errorf("%w: instruction %d ends the program", ErrLUTTruncated, i)
			}
			ext := decode(bin[(i+1)*InstructionSize:])
			if _, _, _, err := decodeLUTExt(ext, i+1); err != nil {
				return info, err
			}
			info.LUTs++
			i++
		}
	}
	for ; i < n; i++ {
		inst := decode(bin[i*InstructionSize:])
		if inst.Classify() != KindOutput {
			return info, fmt.Errorf("%w: instruction %d: expected output instruction, got %v", ErrBadLayout, i, inst.Classify())
		}
		info.Outputs++
	}
	if uint64(info.Gates) != declaredGates {
		return info, fmt.Errorf("%w: header declares %d gates, found %d", ErrGateCount, declaredGates, info.Gates)
	}
	return info, nil
}

// Disassemble decodes a program binary back into a netlist. Port names are
// synthesized (in[i], out[i]) since the format does not carry them.
func Disassemble(bin []byte) (*circuit.Netlist, error) {
	info, err := Inspect(bin)
	if err != nil {
		return nil, err
	}
	nl := &circuit.Netlist{
		Name:        "disassembled",
		NumInputs:   info.Inputs,
		Gates:       make([]circuit.Gate, 0, info.Gates),
		Outputs:     make([]circuit.NodeID, 0, info.Outputs),
		InputNames:  make([]string, info.Inputs),
		OutputNames: make([]string, info.Outputs),
	}
	for i := range nl.InputNames {
		nl.InputNames[i] = fmt.Sprintf("in[%d]", i)
	}
	for i := range nl.OutputNames {
		nl.OutputNames[i] = fmt.Sprintf("out[%d]", i)
	}
	at := 1 + info.Inputs
	for g := 0; g < info.Gates; g++ {
		inst := decode(bin[at*InstructionSize:])
		at++
		if inst.Type == 0x0 {
			// Inspect already validated the extension word.
			ext := decode(bin[at*InstructionSize:])
			at++
			third, tt, arity, err := decodeLUTExt(ext, at-1)
			if err != nil {
				return nil, err
			}
			nl.Gates = append(nl.Gates, circuit.Gate{
				A: circuit.NodeID(inst.F1), B: circuit.NodeID(inst.F2), C: third,
				TT: tt, Arity: arity,
			})
			continue
		}
		nl.Gates = append(nl.Gates, circuit.Gate{
			Kind: logic.Kind(inst.Type),
			A:    circuit.NodeID(inst.F1),
			B:    circuit.NodeID(inst.F2),
		})
	}
	for i := 0; i < info.Outputs; i++ {
		inst := decode(bin[(at+i)*InstructionSize:])
		nl.Outputs = append(nl.Outputs, circuit.NodeID(inst.F2))
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return nl, nil
}

// Listing renders a human-readable disassembly, one instruction per line.
func Listing(bin []byte) (string, error) {
	info, err := Inspect(bin)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("header  gates=%d\n", info.Gates)
	idx := 1
	for i := 1; i < info.Instructions; i++ {
		inst := decode(bin[i*InstructionSize:])
		switch inst.Classify() {
		case KindInput:
			out += fmt.Sprintf("input   #%d\n", idx)
			idx++
		case KindGate:
			if inst.Type == 0x0 {
				ext := decode(bin[(i+1)*InstructionSize:])
				third, tt, arity, err := decodeLUTExt(ext, i+1)
				if err != nil {
					return "", err
				}
				if arity >= 3 {
					out += fmt.Sprintf("lut%d    #%d = %#x(%d, %d, %d)\n", arity, idx, uint8(tt), inst.F1, inst.F2, third)
				} else {
					out += fmt.Sprintf("lut%d    #%d = %#x(%d, %d)\n", arity, idx, uint8(tt), inst.F1, inst.F2)
				}
				i++
			} else {
				out += fmt.Sprintf("gate    #%d = %s(%d, %d)\n", idx, logic.Kind(inst.Type), inst.F1, inst.F2)
			}
			idx++
		case KindOutput:
			out += fmt.Sprintf("output  <- #%d\n", inst.F2)
		}
	}
	return out, nil
}
