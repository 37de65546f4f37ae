package frameworks

import (
	"math"
	"testing"

	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/logic"
	"pytfhe/internal/models"
)

// fmtSscanf parses "name[idx]".
func fmtSscanf(s string, base *string, idx *int) (int, error) {
	open := -1
	for i, r := range s {
		if r == '[' {
			open = i
			break
		}
	}
	if open < 0 || s[len(s)-1] != ']' {
		return 0, errBadName
	}
	*base = s[:open]
	n := 0
	for _, r := range s[open+1 : len(s)-1] {
		n = n*10 + int(r-'0')
	}
	*idx = n
	return 2, nil
}

var errBadName = circuitError("bad name")

type circuitError string

func (e circuitError) Error() string { return string(e) }

// TestDSLArithmeticAllStyles verifies that every style computes the same
// function, whatever its gate count.
func TestDSLArithmeticAllStyles(t *testing.T) {
	styles := []Style{PyTFHEStyle(), CingulataStyle(), E3Style(), TranspilerStyle()}
	for _, st := range styles {
		st := st
		t.Run(st.Name, func(t *testing.T) {
			p := NewProgram("arith", st)
			x := p.Input("x", 12)
			y := p.Input("y", 12)
			sum := p.Add(x, y)
			diff := p.Sub(x, y)
			prod := p.Mul(x, y)
			cmul := p.MulConst(x, 13)
			mx := p.Max(x, y)
			rl := p.Relu(diff)
			p.Output("sum", sum)
			p.Output("diff", diff)
			p.Output("prod", prod)
			p.Output("cmul", cmul)
			p.Output("max", mx)
			p.Output("relu", rl)
			nl, err := p.B.Build()
			if err != nil {
				t.Fatal(err)
			}

			cases := [][2]int64{{5, 9}, {100, -3}, {-50, -60}, {0, 7}, {2000, 1}}
			for _, c := range cases {
				ins := map[string]int64{"x": c[0], "y": c[1]}
				mask := func(v int64) int64 { return int64(uint64(v)<<52) >> 52 }
				get := func(off int) int64 {
					bits := make([]bool, nl.NumInputs)
					for i, name := range nl.InputNames {
						var base string
						var idx int
						if _, err := fmtSscanf(name, &base, &idx); err != nil {
							t.Fatal(err)
						}
						bits[i] = ins[base]>>uint(idx)&1 == 1
					}
					out, err := nl.Evaluate(bits)
					if err != nil {
						t.Fatal(err)
					}
					var raw uint64
					for i := 0; i < 12; i++ {
						if out[off*12+i] {
							raw |= 1 << uint(i)
						}
					}
					return int64(raw<<52) >> 52
				}
				if got := get(0); got != mask(c[0]+c[1]) {
					t.Fatalf("%s: add(%d,%d) = %d", st.Name, c[0], c[1], got)
				}
				if got := get(1); got != mask(c[0]-c[1]) {
					t.Fatalf("%s: sub = %d", st.Name, got)
				}
				if got := get(2); got != mask(c[0]*c[1]) {
					t.Fatalf("%s: mul(%d,%d) = %d want %d", st.Name, c[0], c[1], got, mask(c[0]*c[1]))
				}
				if got := get(3); got != mask(c[0]*13) {
					t.Fatalf("%s: mulconst = %d", st.Name, got)
				}
				wantMax := c[0]
				if c[1] > c[0] {
					wantMax = c[1]
				}
				if got := get(4); got != mask(wantMax) {
					t.Fatalf("%s: max = %d", st.Name, got)
				}
				wantRelu := mask(c[0] - c[1])
				if wantRelu < 0 {
					wantRelu = 0
				}
				if got := get(5); got != wantRelu {
					t.Fatalf("%s: relu = %d want %d", st.Name, got, wantRelu)
				}
			}
		})
	}
}

func TestTranspilerAlphabetRestriction(t *testing.T) {
	p := NewProgram("alpha", TranspilerStyle())
	x := p.Input("x", 8)
	y := p.Input("y", 8)
	p.Output("sum", p.Add(x, y))
	nl, err := p.B.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range nl.Gates {
		switch g.Kind() {
		case logic.AND, logic.OR, logic.NOT, logic.COPY:
		default:
			t.Fatalf("transpiler netlist contains %v gate", g.Kind())
		}
	}
}

func TestMulConstFixed(t *testing.T) {
	for _, st := range []Style{PyTFHEStyle(), E3Style()} {
		p := NewProgram("fx", st)
		x := p.Input("x", 16)
		p.Output("y", p.MulConstFixed(x, 0.75, 8))
		nl, err := p.B.Build()
		if err != nil {
			t.Fatal(err)
		}
		// x = 2.0 in Fixed(8,8) -> raw 512; 0.75*2 = 1.5 -> raw 384.
		bits := make([]bool, 16)
		for i := 0; i < 16; i++ {
			bits[i] = 512>>uint(i)&1 == 1
		}
		out, err := nl.Evaluate(bits)
		if err != nil {
			t.Fatal(err)
		}
		var raw int64
		for i := 0; i < 16; i++ {
			if out[i] {
				raw |= 1 << uint(i)
			}
		}
		if raw != 384 {
			t.Fatalf("%s: 0.75 * 2.0 raw = %d, want 384", st.Name, raw)
		}
	}
}

// TestGateCountOrdering is the structural heart of Fig. 14: on the same
// model, PyTFHE(ChiselTorch) < Cingulata < E3 << Transpiler.
func TestGateCountOrdering(t *testing.T) {
	spec := models.MNISTS().Scaled(9) // small image, same topology
	counts := map[string]int{}
	for _, c := range AllBaselines() {
		nl, err := c.CompileMNIST(spec)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		counts[c.Name()] = len(nl.Gates)
	}
	model := spec.ToChiselTorch(chiseltorch.NewFixed(8, 8))
	ct, err := model.Compile(1, spec.Image, spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	counts["pytfhe"] = len(ct.Netlist.Gates)

	if !(counts["pytfhe"] < counts["cingulata"] &&
		counts["cingulata"] < counts["e3"] &&
		counts["e3"] < counts["transpiler"]) {
		t.Fatalf("gate-count ordering broken: %v", counts)
	}
	// Rough factors from the paper: PyTFHE ≈ 65%/54% of Cingulata/E3 and
	// far below Transpiler. Accept generous bands.
	rc := float64(counts["pytfhe"]) / float64(counts["cingulata"])
	re := float64(counts["pytfhe"]) / float64(counts["e3"])
	rt := float64(counts["pytfhe"]) / float64(counts["transpiler"])
	if rc < 0.35 || rc > 0.95 {
		t.Errorf("PyTFHE/Cingulata ratio %.2f outside plausible band (paper: 0.65)", rc)
	}
	if re < 0.25 || re > 0.85 {
		t.Errorf("PyTFHE/E3 ratio %.2f outside plausible band (paper: 0.54)", re)
	}
	if rt > 0.45 {
		t.Errorf("PyTFHE/Transpiler ratio %.2f — Transpiler should be far larger", rt)
	}
	t.Logf("gate counts: %v (ratios vs cingulata %.3f, e3 %.3f, transpiler %.3f)", counts, rc, re, rt)
}

// TestBaselineMNISTMatchesChiselTorch checks functional agreement between
// a baseline-compiled MNIST and the ChiselTorch one on the same input.
func TestBaselineMNISTMatchesChiselTorch(t *testing.T) {
	spec := models.MNISTS().Scaled(7)
	model := spec.ToChiselTorch(chiseltorch.NewFixed(8, 8))
	ct, err := model.Compile(1, spec.Image, spec.Image)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, spec.Image*spec.Image)
	for i := range in {
		in[i] = math.Sin(float64(i)) / 2
	}
	want, err := ct.Infer(in)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []*Compiler{Cingulata(), E3()} {
		nl, err := c.CompileMNIST(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Encode the same Fixed(8,8) input for the DSL netlist.
		bits := make([]bool, nl.NumInputs)
		for i := range in {
			raw := uint64(int64(math.Round(in[i]*256))) & 0xFFFF
			for b := 0; b < 16; b++ {
				bits[i*16+b] = raw>>uint(b)&1 == 1
			}
		}
		out, err := nl.Evaluate(bits)
		if err != nil {
			t.Fatal(err)
		}
		for cls := 0; cls < spec.Classes; cls++ {
			var raw uint64
			for b := 0; b < 16; b++ {
				if out[cls*16+b] {
					raw |= 1 << uint(b)
				}
			}
			got := float64(int64(raw<<48)>>48) / 256
			if math.Abs(got-want[cls]) > 0.25 {
				t.Fatalf("%s: logit %d = %g, ChiselTorch %g", c.Name(), cls, got, want[cls])
			}
		}
	}
}
