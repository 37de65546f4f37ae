package wire

import (
	"bytes"
	"encoding/gob"
	"testing"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
)

// TestCiphertextWireSize pins the per-ciphertext communication cost of
// Fig. 7: one LWE sample under the default128 parameter set is (630+1)
// 4-byte torus elements = 2524 B ≈ 2.46 KB. CiphertextBytes is the figure
// the cluster coordinator's BytesSent accounting multiplies by, so a drift
// here silently skews every communication profile.
func TestCiphertextWireSize(t *testing.T) {
	p := params.Default128()
	if got := p.CiphertextBytes(); got != 2524 {
		t.Fatalf("default128 ciphertext = %d B, want 2524 (~2.46 KB, Fig. 7)", got)
	}
	if kb := float64(p.CiphertextBytes()) / 1024; kb < 2.4 || kb > 2.5 {
		t.Fatalf("default128 ciphertext = %.2f KiB, want ~2.46", kb)
	}
}

// TestCiphertextGobOverhead checks that gob's steady-state framing of a
// ciphertext stays within a modest factor of the raw payload: the type
// descriptor is amortized over the stream (sent once per encoder), and
// each subsequent sample costs the varint-encoded coefficients plus a few
// bytes of framing. A regression past +45% would mean the wire format
// stopped matching the paper's communication model.
func TestCiphertextGobOverhead(t *testing.T) {
	p := params.Default128()
	sample := func(seed uint32) *lwe.Sample {
		s := lwe.NewSample(p.LWEDimension)
		for i := range s.A {
			// Full-width torus values, the worst case for varints.
			s.A[i] = 0x89abcdef ^ (seed+uint32(i))*0x9e3779b9
		}
		s.B = 0xdeadbeef
		return s
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(sample(1)); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(sample(2)); err != nil {
		t.Fatal(err)
	}
	steady := buf.Len() - first // second sample: no type descriptor
	raw := p.CiphertextBytes()
	if steady < raw {
		t.Fatalf("gob steady-state ciphertext = %d B, below raw payload %d B", steady, raw)
	}
	if limit := raw * 145 / 100; steady > limit {
		t.Fatalf("gob steady-state ciphertext = %d B, exceeds %d B (raw %d B +45%%)", steady, limit, raw)
	}
	t.Logf("raw %d B, gob steady-state %d B (+%.0f%%)", raw, steady, 100*float64(steady-raw)/float64(raw))
}
