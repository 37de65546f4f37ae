package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/tfhe/lwe"
)

// lutNetlist builds a netlist holding arity-3 LUT nodes alongside classic
// and free gates: a full-adder-ish mix where the parity and majority of
// three inputs come from single LUT gates.
func lutNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("lut-mix", circuit.AllOptimizations())
	x, y, z, w := b.Input("x"), b.Input("y"), b.Input("z"), b.Input("w")
	par := b.LUT(0x96, x, y, z) // x ⊕ y ⊕ z
	maj := b.LUT(0xE8, x, y, z) // majority
	spread := b.LUT(0x7E, par, maj, w)
	b.Output("p", par)
	b.Output("m", b.And(maj, w))
	b.Output("s", b.Xor(spread, b.Not(x)))
	return b.MustBuild()
}

// TestLUTDriverAgreement runs a LUT-bearing netlist through Single and
// Planned at every batch size (batch 1 is the pool backend), and checks
// decryption against the cleartext reference, plus the LUT evaluation
// counter.
func TestLUTDriverAgreement(t *testing.T) {
	sk, ck := keys(t)
	nl := lutNetlist()
	wantLUTs := nl.ComputeStats().LUTs
	if wantLUTs == 0 {
		t.Fatal("setup: netlist has no LUT gates")
	}
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 4; trial++ {
		in := make([]bool, nl.NumInputs)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		want, err := nl.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, outs []*lwe.Sample, stats exec.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s trial %d: %v", label, trial, err)
			}
			if stats.LUTs != wantLUTs {
				t.Fatalf("%s trial %d: stats report %d LUTs, want %d", label, trial, stats.LUTs, wantLUTs)
			}
			got := backend.DecryptOutputs(sk, outs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d output %d: got %v want %v", label, trial, i, got[i], want[i])
				}
			}
		}

		single := backend.NewSingle(ck)
		outs, err := single.Run(nl, backend.EncryptInputs(sk, in))
		check("single", outs, single.Stats, err)

		for _, w := range []int{1, 3} {
			for _, batch := range []int{1, 2, 8} {
				planned := backend.NewPlanned(ck, w, batch)
				outs, err := planned.Run(nl, backend.EncryptInputs(sk, in))
				planned.Close()
				check(fmt.Sprintf("plan-b%d/%dw", batch, w), outs, planned.Stats, err)
			}
		}
	}
}
