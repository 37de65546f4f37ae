package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/experiments"
	"pytfhe/internal/synth"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/trand"
)

// hashOutputs is sha256 over the mask and body words of every output
// ciphertext, in order, shortened to 16 hex digits.
func hashOutputs(outs []*lwe.Sample) string {
	h := sha256.New()
	var w [4]byte
	for _, o := range outs {
		for _, a := range o.A {
			binary.LittleEndian.PutUint32(w[:], uint32(a))
			h.Write(w[:])
		}
		binary.LittleEndian.PutUint32(w[:], uint32(o.B))
		h.Write(w[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestOutputBitsPinned holds every executor to the exact output ciphertexts
// it produced before the executors were folded onto one scheduler and one
// evaluator: evaluation is deterministic (seeded keys, seeded encryption)
// and a batched kernel member is bit-exact with a single call, so a
// refactor of scheduling, batching or dispatch must leave these hashes
// alone. Every executor replays the same compiled plan, so all of them
// hash to one value per target: the plan-order hash, which differs from a
// netlist-order evaluation only where deduplication reroutes a value (the
// ripple chains). A deliberate change to the kernel, the parameters, the
// plan compiler or the random generator re-pins them.
func TestOutputBitsPinned(t *testing.T) {
	sk, ck := agreeKeys(t)
	coord := startCluster(t, ck, 2, 2)
	res, err := synth.OptimizeLUT(lutDemoNetlist())
	if err != nil {
		t.Fatal(err)
	}
	targets := []struct {
		checkTarget
		planOrder string
	}{
		{checkTarget{"bench/ripple-imbalanced", experiments.ImbalancedNetlist()}, "3f5b8afe0c1adadf"},
		{checkTarget{"examples/lut", res.Netlist}, "4ccaf70dc5699b05"},
	}
	pool2, planned16 := backend.NewPool(ck, 2), backend.NewPlanned(ck, 2, 16)
	defer pool2.Close()
	defer planned16.Close()
	runners := []struct {
		name string
		run  func(*circuit.Netlist, []*lwe.Sample) ([]*lwe.Sample, error)
	}{
		{"single", backend.NewSingle(ck).Run},
		{"pool(2), planned(2) batch 1", pool2.Run},
		{"planned(2) batch 16", planned16.Run},
		{"cluster", coord.Run},
	}
	for _, tg := range targets {
		rng := trand.NewSeeded([]byte("output-bits/" + tg.name))
		bits := patternBits(tg.nl.NumInputs)
		enc := make([]*lwe.Sample, len(bits))
		for i, b := range bits {
			enc[i] = gate.NewCiphertext(sk.Params)
			gate.Encrypt(enc[i], b, sk, rng)
		}
		want, err := tg.nl.Evaluate(bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runners {
			outs, err := r.run(tg.nl, enc)
			if err != nil {
				t.Fatalf("%s on %s: %v", r.name, tg.name, err)
			}
			for i, got := range backend.DecryptOutputs(sk, outs) {
				if got != want[i] {
					t.Fatalf("%s on %s: output %d = %v, plaintext interpreter says %v", r.name, tg.name, i, got, want[i])
				}
			}
			if h := hashOutputs(outs); h != tg.planOrder {
				t.Errorf("%s on %s: output ciphertexts hash to %s, pinned %s", r.name, tg.name, h, tg.planOrder)
			}
		}
	}
}
