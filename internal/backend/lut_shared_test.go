package backend

import (
	"context"
	"testing"

	"pytfhe/internal/circuit"
)

// lutMixNetlist mixes arity-3 LUTs, an arity-2 LUT, and classic gates, so
// both shared-executor dispatch paths see every gate shape.
func lutMixNetlist(t testing.TB) *circuit.Netlist {
	t.Helper()
	b := circuit.NewBuilder("lut-mix", circuit.NoOptimizations())
	x, y, z, w := b.Input("x"), b.Input("y"), b.Input("z"), b.Input("w")
	par := b.LUT(0x96, x, y, z) // PARITY3
	maj := b.LUT(0xE8, x, y, z) // MAJ
	mix := b.LUT(0x7E, par, maj, w)
	b.Output("mix", mix)
	b.Output("pair", b.LUT(0x6, par, w)) // XOR as an arity-2 table
	b.Output("classic", b.And(b.Not(maj), w))
	return b.MustBuild()
}

// TestSharedLUT submits a LUT-bearing plan to the shared executor —
// unbatched and with the mixed OpBatch path — and checks every decrypted
// output against the cleartext reference, plus the cumulative LUT counter.
func TestSharedLUT(t *testing.T) {
	sk, ck := keys(t)
	nl := lutMixNetlist(t)
	// The executor counts what it runs: the plan's LUT instructions (none
	// of this netlist's LUTs deduplicate away).
	p := mustPlan(t, nl)
	wantLUTs := int64(p.Stats().ExecLUTs)
	if wantLUTs == 0 || wantLUTs != int64(nl.ComputeStats().LUTs) {
		t.Fatalf("setup: plan executes %d LUTs of the netlist's %d", wantLUTs, nl.ComputeStats().LUTs)
	}

	for _, tc := range []struct {
		name  string
		batch int
	}{{"single", 1}, {"batched", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			ex := NewShared(2, tc.batch)
			defer ex.Close()
			key, err := ex.RegisterKey(ck)
			if err != nil {
				t.Fatal(err)
			}
			var luts int64
			for v := uint64(0); v < 16; v++ {
				bits := bitsOf(v, 4)
				want, err := nl.Evaluate(bits)
				if err != nil {
					t.Fatal(err)
				}
				outs, _, err := ex.Submit(context.Background(), key, p, EncryptInputs(sk, bits))
				if err != nil {
					t.Fatal(err)
				}
				got := DecryptOutputs(sk, outs)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("inputs %04b output %d: got %v, want %v", v, i, got[i], want[i])
					}
				}
				luts += wantLUTs
			}
			st := ex.Stats()
			if st.LUTs != luts {
				t.Fatalf("executor counted %d LUTs, want %d", st.LUTs, luts)
			}
			if st.Bootstraps < st.LUTs {
				t.Fatalf("LUTs (%d) not included in bootstraps (%d)", st.LUTs, st.Bootstraps)
			}
		})
	}
}
