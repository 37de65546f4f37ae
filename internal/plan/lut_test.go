package plan

import (
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/trand"

	"pytfhe/internal/tfhe/gate"
)

// lutNetlist mixes 3-input LUTs, a 2-input LUT, classic and free gates —
// the shape lut-cluster emits.
func lutNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("lut-mix", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	w := b.Input("w")
	par := b.LUT(0x96, x, y, z) // PARITY3
	maj := b.LUT(0xE8, x, y, z) // MAJ
	mix := b.LUT(0x7E, par, maj, w)
	and := b.Gate(logic.AND, par, w)
	b.Output("mix", mix)
	b.Output("and", and)
	b.Output("not", b.Gate(logic.NOT, maj, maj))
	return b.MustBuild()
}

// TestPlanLUTMatchesEvaluate checks, exhaustively, that compiled LUT plans
// compute the netlist's function, that Verify (plain and batch-grouped)
// accepts them, and that LUT instructions survive into the stats.
func TestPlanLUTMatchesEvaluate(t *testing.T) {
	nl := lutNetlist()
	for _, workers := range []int{1, 2, 4} {
		p, err := Compile(nl, workers)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if p.Stats().LogicalLUTs != 3 {
			t.Fatalf("w=%d logical LUTs = %d, want 3", workers, p.Stats().LogicalLUTs)
		}
		if p.Stats().ExecLUTs == 0 {
			t.Fatalf("w=%d exec LUTs = 0, LUT instructions were lost", workers)
		}
		if _, err := Verify(nl, p); err != nil {
			t.Fatalf("w=%d verify: %v", workers, err)
		}
		if _, err := VerifyBatch(nl, p, 4); err != nil {
			t.Fatalf("w=%d verify batch: %v", workers, err)
		}
		for m := 0; m < 1<<nl.NumInputs; m++ {
			in := make([]bool, nl.NumInputs)
			for i := range in {
				in[i] = m>>i&1 == 1
			}
			want, err := nl.Evaluate(in)
			if err != nil {
				t.Fatal(err)
			}
			got := evalPlan(p, in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d input %b output %d: plan %v, reference %v",
						workers, m, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlanLUTDedupPermutation compiles two LUT gates that compute the same
// function with permuted operand order (the table permuted to match) and
// asserts capture merges them into one executed bootstrap.
func TestPlanLUTDedupPermutation(t *testing.T) {
	const tt = logic.TT(0x78) // asymmetric feasible 3-input table
	perm := []int{1, 0, 2}
	b := circuit.NewBuilder("lut-perm", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	g1 := b.LUT(tt, x, y, z)
	g2 := b.LUT(tt.Permute(3, perm), y, x, z)
	b.Output("a", g1)
	b.Output("b", g2)
	nl := b.MustBuild()

	// The permuted table really is the same function.
	for m := 0; m < 8; m++ {
		in := []bool{m>>0&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		want, err := nl.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		if want[0] != want[1] {
			t.Fatalf("input %b: outputs disagree, test netlist is wrong", m)
		}
	}

	p, err := Compile(nl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().LogicalLUTs != 2 {
		t.Fatalf("logical LUTs = %d, want 2", p.Stats().LogicalLUTs)
	}
	if p.Stats().ExecLUTs != 1 {
		t.Fatalf("exec LUTs = %d, want 1 (permuted operands must dedup)", p.Stats().ExecLUTs)
	}
	if _, err := Verify(nl, p); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestPlanLUTFingerprint asserts the fingerprint covers the truth table:
// plans identical except for one LUT's table must not collide (they key
// the shard caches).
func TestPlanLUTFingerprint(t *testing.T) {
	build := func(tt logic.TT) *Plan {
		b := circuit.NewBuilder("fp", circuit.NoOptimizations())
		x := b.Input("x")
		y := b.Input("y")
		z := b.Input("z")
		b.Output("o", b.LUT(tt, x, y, z))
		p, err := Compile(b.MustBuild(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if build(0x96).Fingerprint() == build(0xE8).Fingerprint() {
		t.Fatal("plans with different LUT tables share a fingerprint")
	}
}

// TestPlanLUTReplayBatch replays a LUT plan homomorphically — sequential
// and batched — and checks decryption against the cleartext reference.
func TestPlanLUTReplayBatch(t *testing.T) {
	sk, ck := testKeys(t)
	nl := lutNetlist()
	p, err := Compile(nl, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := gate.NewEngine(ck)
	rt := NewRuntime(ck.Params.LWEDimension)
	rng := trand.NewSeeded([]byte("plan-lut-replay"))

	for _, batch := range []int{1, 4} {
		for _, m := range []int{0, 5, 10, 15} {
			in := make([]bool, nl.NumInputs)
			cts := make([]*gate.Ciphertext, nl.NumInputs)
			for i := range in {
				in[i] = m>>i&1 == 1
				cts[i] = gate.NewCiphertext(sk.Params)
				gate.Encrypt(cts[i], in[i], sk, rng)
			}
			outs, err := Replay(p, NewInterp(eng, batch), cts, rt)
			if err != nil {
				t.Fatalf("batch=%d: %v", batch, err)
			}
			want, err := nl.Evaluate(in)
			if err != nil {
				t.Fatal(err)
			}
			for i, ct := range outs {
				if got := gate.Decrypt(ct, sk); got != want[i] {
					t.Fatalf("batch=%d input %b output %d: got %v want %v", batch, m, i, got, want[i])
				}
			}
		}
	}
}
