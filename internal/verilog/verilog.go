// Package verilog emits and parses the structural-Verilog interchange
// format of the toolchain. In the paper's flow, ChiselTorch emits Verilog
// that Yosys consumes; here the emitter renders a gate netlist as a single
// combinational module of assign statements, and the parser reads the same
// subset back (in any statement order), so pipeline stages remain separable
// and inspectable.
//
// Supported subset: one module; scalar input/output/wire declarations;
// continuous assignments whose right-hand side is a literal (1'b0/1'b1), an
// optionally negated identifier, or a two-operand expression over &, |, ^
// with optional per-operand and whole-expression negation — exactly the
// image of the TFHE gate alphabet.
package verilog

import (
	"fmt"
	"strings"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// Emit renders the netlist as a structural Verilog module.
func Emit(nl *circuit.Netlist) (string, error) {
	if err := nl.Validate(); err != nil {
		return "", fmt.Errorf("verilog: %w", err)
	}
	var sb strings.Builder
	name := sanitize(nl.Name)
	if name == "" {
		name = "top"
	}

	inNames := make([]string, nl.NumInputs)
	used := map[string]bool{}
	for i := range inNames {
		base := fmt.Sprintf("in_%d", i)
		if nl.InputNames != nil && nl.InputNames[i] != "" {
			base = sanitize(nl.InputNames[i])
		}
		inNames[i] = uniquify(base, used)
	}
	outNames := make([]string, len(nl.Outputs))
	for i := range outNames {
		base := fmt.Sprintf("out_%d", i)
		if nl.OutputNames != nil && nl.OutputNames[i] != "" {
			base = sanitize(nl.OutputNames[i])
		}
		outNames[i] = uniquify(base, used)
	}

	fmt.Fprintf(&sb, "// Generated by PyTFHE\nmodule %s(%s);\n", name,
		strings.Join(append(append([]string{}, inNames...), outNames...), ", "))
	for _, n := range inNames {
		fmt.Fprintf(&sb, "  input %s;\n", n)
	}
	for _, n := range outNames {
		fmt.Fprintf(&sb, "  output %s;\n", n)
	}

	wire := func(id circuit.NodeID) string {
		if nl.IsInput(id) {
			return inNames[id-1]
		}
		return fmt.Sprintf("n%d", id)
	}
	for i := range nl.Gates {
		fmt.Fprintf(&sb, "  wire n%d;\n", nl.GateID(i))
	}
	for i, g := range nl.Gates {
		if g.IsLUT() {
			return "", fmt.Errorf("verilog: gate %d is a %d-input LUT; structural Verilog holds two-input gates only", nl.GateID(i), g.Arity)
		}
		expr, err := gateExpr(g.Kind(), wire(g.A), wire(g.B))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "  assign n%d = %s;\n", nl.GateID(i), expr)
	}
	for i, out := range nl.Outputs {
		var rhs string
		switch out {
		case circuit.ConstTrue:
			rhs = "1'b1"
		case circuit.ConstFalse:
			rhs = "1'b0"
		default:
			rhs = wire(out)
		}
		fmt.Fprintf(&sb, "  assign %s = %s;\n", outNames[i], rhs)
	}
	sb.WriteString("endmodule\n")
	return sb.String(), nil
}

func gateExpr(k logic.Kind, a, b string) (string, error) {
	switch k {
	case logic.AND:
		return fmt.Sprintf("%s & %s", a, b), nil
	case logic.OR:
		return fmt.Sprintf("%s | %s", a, b), nil
	case logic.XOR:
		return fmt.Sprintf("%s ^ %s", a, b), nil
	case logic.NAND:
		return fmt.Sprintf("~(%s & %s)", a, b), nil
	case logic.NOR:
		return fmt.Sprintf("~(%s | %s)", a, b), nil
	case logic.XNOR:
		return fmt.Sprintf("~(%s ^ %s)", a, b), nil
	case logic.ANDNY:
		return fmt.Sprintf("~%s & %s", a, b), nil
	case logic.ANDYN:
		return fmt.Sprintf("%s & ~%s", a, b), nil
	case logic.ORNY:
		return fmt.Sprintf("~%s | %s", a, b), nil
	case logic.ORYN:
		return fmt.Sprintf("%s | ~%s", a, b), nil
	case logic.NOT:
		return "~" + a, nil
	case logic.NOTB:
		return "~" + b, nil
	case logic.COPY:
		return a, nil
	case logic.COPYB:
		return b, nil
	case logic.False:
		return "1'b0", nil
	case logic.True:
		return "1'b1", nil
	}
	return "", fmt.Errorf("verilog: unencodable gate kind %v", k)
}

func sanitize(s string) string {
	var sb strings.Builder
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' && i > 0
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	out := sb.String()
	if out == "" || out[0] >= '0' && out[0] <= '9' {
		out = "_" + out
	}
	return out
}

func uniquify(base string, used map[string]bool) string {
	name := base
	for i := 2; used[name] || reserved(name); i++ {
		name = fmt.Sprintf("%s_%d", base, i)
	}
	used[name] = true
	return name
}

func reserved(s string) bool {
	switch s {
	case "module", "endmodule", "input", "output", "wire", "assign":
		return true
	}
	return false
}
