package serve

import (
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/core"
)

// naeProgs compiles a classic 2-input-gate circuit full of clusterable
// cones twice: classically, and through core.CompileLUT, where each
// not-all-equal detector NAE(a,b,c) = (a⊕b)∨(b⊕c) over disjoint inputs
// collapses into one 0x7E programmable bootstrap. The two NAEs are
// combined by an XOR.
func naeProgs(t testing.TB) (classic, lut *core.Program) {
	t.Helper()
	b := circuit.NewBuilder("nae-pair", circuit.AllOptimizations())
	xs := b.Inputs("x", 6)
	nae := func(x, y, z circuit.NodeID) circuit.NodeID {
		return b.Or(b.Xor(x, y), b.Xor(y, z))
	}
	n1 := nae(xs[0], xs[1], xs[2])
	n2 := nae(xs[3], xs[4], xs[5])
	b.Output("n1", n1)
	b.Output("agree", b.Xor(n1, n2))
	classic = compile(t, b)
	lut, err := core.CompileLUT(classic.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	return classic, lut
}

// TestServeLUT registers a core.CompileLUT binary with a default daemon
// and checks the whole surface: the daemon keeps the program it was sent
// under that binary's hash (LUTs > 0 and fewer bootstraps than the classic
// build in ProgramInfo), evaluations decrypt bit-identically to the
// classic netlist, and the Stats RPC reports the LUT counts. The classic
// binary of the same circuit, registered next to it, evaluates no LUT.
func TestServeLUT(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog, lprog := naeProgs(t)
	if prog.Stats.LUTs != 0 {
		t.Fatalf("setup: classic binary already has %d LUTs", prog.Stats.LUTs)
	}

	srv := startServer(t, Config{Workers: 2})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info, err := c.RegisterProgram(lprog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hash != hashBytes(lprog.Binary) {
		t.Fatalf("registry key %s is not the uploaded binary's hash", info.Hash)
	}
	if info.LUTs == 0 || info.LUTs != lprog.Stats.LUTs {
		t.Fatalf("daemon admitted %q with %d LUTs, the binary has %d: %+v", info.Name, info.LUTs, lprog.Stats.LUTs, info)
	}
	if info.Bootstrapped >= prog.Stats.Bootstrapped {
		t.Fatalf("clustering did not reduce bootstraps: %d -> %d",
			prog.Stats.Bootstrapped, info.Bootstrapped)
	}
	if !info.Noise.Checked {
		t.Fatal("noise analysis did not run on the clustered form")
	}
	if again, err := c.RegisterProgram(lprog.Binary); err != nil || !again.Cached {
		t.Fatalf("re-register: cached=%v err=%v", again != nil && again.Cached, err)
	}

	if _, err := c.OpenSession(kp.Cloud); err != nil {
		t.Fatal(err)
	}
	evals := 0
	for _, v := range []uint64{0, 0b101101, 0b111000, 0b010111} {
		bits := bitsOf(v, 6)
		want, err := prog.Netlist.Evaluate(bits)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := c.Evaluate(info.Hash, kp.EncryptBits(bits))
		if err != nil {
			t.Fatal(err)
		}
		got := kp.DecryptBits(outs)
		if len(got) != len(want) {
			t.Fatalf("inputs %06b: %d outputs, want %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("inputs %06b output %d: daemon says %v, classic netlist says %v", v, i, got[i], want[i])
			}
		}
		evals++
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(evals * info.LUTs); st.LUTsEvaluated != want {
		t.Fatalf("stats report %d LUTs evaluated, want %d", st.LUTsEvaluated, want)
	}

	// The classic binary is a different program under its own hash: the
	// daemon serves it as sent, with no LUT, and it decrypts to the same
	// bits.
	oinfo, err := c.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if oinfo.Hash == info.Hash || oinfo.LUTs != 0 {
		t.Fatalf("classic binary registered as %s with %d LUTs", oinfo.Hash, oinfo.LUTs)
	}
	bits := bitsOf(0b101101, 6)
	want, err := prog.Netlist.Evaluate(bits)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := c.Evaluate(oinfo.Hash, kp.EncryptBits(bits))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range kp.DecryptBits(outs) {
		if g != want[i] {
			t.Fatalf("classic output %d: got %v, want %v", i, g, want[i])
		}
	}
	ost, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ost.LUTsEvaluated != st.LUTsEvaluated || ost.ExecutorLUTs != st.ExecutorLUTs {
		t.Fatalf("classic evaluation counted LUTs: %d -> %d evaluated, %d -> %d executed",
			st.LUTsEvaluated, ost.LUTsEvaluated, st.ExecutorLUTs, ost.ExecutorLUTs)
	}
}
