// Package hdl is PyTFHE's combinational hardware construction library — the
// role Chisel plays in the paper. A Module wraps a circuit.Builder and
// provides multi-bit buses with logic, arithmetic, comparison, shift and
// floating-point operators. Everything lowers to the two-input TFHE gate
// alphabet; because TFHE programs must be data-oblivious, only
// combinational (stateless) constructs exist.
//
// Buses are little-endian: index 0 is the least significant bit. Signed
// values use two's complement.
package hdl

import (
	"fmt"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// Bus is an ordered collection of wires, LSB first.
type Bus []circuit.NodeID

// Width returns the number of bits in the bus.
func (b Bus) Width() int { return len(b) }

// Module builds one combinational design.
type Module struct {
	B *circuit.Builder
}

// New returns a module using the PyTFHE-optimizing builder.
func New(name string) *Module {
	return &Module{B: circuit.NewBuilder(name, circuit.AllOptimizations())}
}

// Input declares a single-bit input.
func (m *Module) Input(name string) circuit.NodeID { return m.B.Input(name) }

// InputBus declares a width-bit input bus named name[i].
func (m *Module) InputBus(name string, width int) Bus {
	return Bus(m.B.Inputs(name, width))
}

// Output registers a single-bit output.
func (m *Module) Output(name string, id circuit.NodeID) { m.B.Output(name, id) }

// OutputBus registers a bus of outputs.
func (m *Module) OutputBus(name string, b Bus) { m.B.OutputBus(name, []circuit.NodeID(b)) }

// Build finalizes the netlist.
func (m *Module) Build() (*circuit.Netlist, error) { return m.B.Build() }

// MustBuild finalizes the netlist, panicking on structural errors.
func (m *Module) MustBuild() *circuit.Netlist { return m.B.MustBuild() }

// ConstBus returns a bus holding the unsigned constant v in width bits.
func (m *Module) ConstBus(v uint64, width int) Bus {
	b := make(Bus, width)
	for i := range b {
		b[i] = m.B.Const(v>>uint(i)&1 == 1)
	}
	return b
}

// ConstBusSigned returns a bus holding the two's-complement constant v.
func (m *Module) ConstBusSigned(v int64, width int) Bus {
	return m.ConstBus(uint64(v), width)
}

// Lit returns a single constant wire.
func (m *Module) Lit(v bool) circuit.NodeID { return m.B.Const(v) }

// --- bitwise operators ---

// Not returns the bitwise complement of a.
func (m *Module) Not(a Bus) Bus {
	out := make(Bus, len(a))
	for i, x := range a {
		out[i] = m.B.Not(x)
	}
	return out
}

func (m *Module) zipBus(kind logic.Kind, a, b Bus) Bus {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hdl: width mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = m.B.Gate(kind, a[i], b[i])
	}
	return out
}

// And returns the bitwise AND of equal-width buses.
func (m *Module) And(a, b Bus) Bus { return m.zipBus(logic.AND, a, b) }

// Or returns the bitwise OR of equal-width buses.
func (m *Module) Or(a, b Bus) Bus { return m.zipBus(logic.OR, a, b) }

// Xor returns the bitwise XOR of equal-width buses.
func (m *Module) Xor(a, b Bus) Bus { return m.zipBus(logic.XOR, a, b) }

// AndBit ANDs every bit of a with the single wire s (bus masking).
func (m *Module) AndBit(a Bus, s circuit.NodeID) Bus {
	out := make(Bus, len(a))
	for i, x := range a {
		out[i] = m.B.And(x, s)
	}
	return out
}

// Mux returns sel ? t : f bitwise. Buses must have equal width.
func (m *Module) Mux(sel circuit.NodeID, t, f Bus) Bus {
	if len(t) != len(f) {
		panic(fmt.Sprintf("hdl: mux width mismatch %d vs %d", len(t), len(f)))
	}
	out := make(Bus, len(t))
	for i := range t {
		out[i] = m.B.Mux(sel, t[i], f[i])
	}
	return out
}

// --- reductions ---

// reduceTree folds a balanced binary tree of the given gate over the wires,
// keeping logic depth logarithmic.
func (m *Module) reduceTree(kind logic.Kind, bits []circuit.NodeID) circuit.NodeID {
	if len(bits) == 0 {
		panic("hdl: reduction of empty bus")
	}
	for len(bits) > 1 {
		next := make([]circuit.NodeID, 0, (len(bits)+1)/2)
		for i := 0; i+1 < len(bits); i += 2 {
			next = append(next, m.B.Gate(kind, bits[i], bits[i+1]))
		}
		if len(bits)%2 == 1 {
			next = append(next, bits[len(bits)-1])
		}
		bits = next
	}
	return bits[0]
}

// OrReduce returns the OR of all bits (a != 0).
func (m *Module) OrReduce(a Bus) circuit.NodeID { return m.reduceTree(logic.OR, a) }

// AndReduce returns the AND of all bits (a == all ones).
func (m *Module) AndReduce(a Bus) circuit.NodeID { return m.reduceTree(logic.AND, a) }

// XorReduce returns the parity of the bus.
func (m *Module) XorReduce(a Bus) circuit.NodeID { return m.reduceTree(logic.XOR, a) }

// IsZero returns a wire that is high when a == 0.
func (m *Module) IsZero(a Bus) circuit.NodeID { return m.B.Not(m.OrReduce(a)) }

// --- width manipulation (pure wiring, zero gates) ---

// ZeroExtend widens a to width bits with zeros.
func (m *Module) ZeroExtend(a Bus, width int) Bus {
	if len(a) >= width {
		return a[:width]
	}
	out := make(Bus, width)
	copy(out, a)
	for i := len(a); i < width; i++ {
		out[i] = m.B.Const(false)
	}
	return out
}

// SignExtend widens a to width bits replicating the sign bit.
func (m *Module) SignExtend(a Bus, width int) Bus {
	if len(a) == 0 {
		panic("hdl: sign extend of empty bus")
	}
	if len(a) >= width {
		return a[:width]
	}
	out := make(Bus, width)
	copy(out, a)
	sign := a[len(a)-1]
	for i := len(a); i < width; i++ {
		out[i] = sign
	}
	return out
}

// Truncate keeps the low width bits.
func (m *Module) Truncate(a Bus, width int) Bus {
	if width > len(a) {
		panic(fmt.Sprintf("hdl: truncate %d-bit bus to %d bits", len(a), width))
	}
	return a[:width]
}

// Slice returns bits [lo, hi) of the bus.
func (m *Module) Slice(a Bus, lo, hi int) Bus {
	if lo < 0 || hi > len(a) || lo > hi {
		panic(fmt.Sprintf("hdl: slice [%d,%d) of %d-bit bus", lo, hi, len(a)))
	}
	return a[lo:hi]
}

// Concat joins buses with the first argument in the least significant
// position.
func (m *Module) Concat(parts ...Bus) Bus {
	var out Bus
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Repeat replicates a single wire into a width-bit bus.
func (m *Module) Repeat(w circuit.NodeID, width int) Bus {
	out := make(Bus, width)
	for i := range out {
		out[i] = w
	}
	return out
}

// --- constant shifts (pure wiring) ---

// ShlConst shifts left by k, keeping the original width.
func (m *Module) ShlConst(a Bus, k int) Bus {
	out := make(Bus, len(a))
	for i := range out {
		if i < k {
			out[i] = m.B.Const(false)
		} else {
			out[i] = a[i-k]
		}
	}
	return out
}

// ShrConst shifts right logically by k, keeping the original width.
func (m *Module) ShrConst(a Bus, k int) Bus {
	out := make(Bus, len(a))
	for i := range out {
		if i+k < len(a) {
			out[i] = a[i+k]
		} else {
			out[i] = m.B.Const(false)
		}
	}
	return out
}

// AshrConst shifts right arithmetically by k.
func (m *Module) AshrConst(a Bus, k int) Bus {
	sign := a[len(a)-1]
	out := make(Bus, len(a))
	for i := range out {
		if i+k < len(a) {
			out[i] = a[i+k]
		} else {
			out[i] = sign
		}
	}
	return out
}

// --- variable shifts (barrel shifter) ---

// ShlVar shifts a left by the unsigned amount sh. Out-of-range amounts
// yield zero.
func (m *Module) ShlVar(a, sh Bus) Bus {
	cur := a
	for i, bit := range sh {
		k := 1 << uint(i)
		if k >= len(a)*2 { // further stages can only produce zero or identity
			k = len(a) * 2
		}
		shifted := m.ShlConst(cur, min(k, len(a)))
		cur = m.Mux(bit, shifted, cur)
	}
	return cur
}

// ShrVar shifts a right logically by the unsigned amount sh.
func (m *Module) ShrVar(a, sh Bus) Bus {
	cur := a
	for i, bit := range sh {
		k := min(1<<uint(i), len(a))
		shifted := m.ShrConst(cur, k)
		cur = m.Mux(bit, shifted, cur)
	}
	return cur
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
