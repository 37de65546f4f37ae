package cluster

import (
	"testing"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// lutNetlist mixes 3-input LUTs with classic gates so both instruction
// shapes share a shard level.
func lutNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("lut-cluster", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	w := b.Input("w")
	par := b.LUT(0x96, x, y, z)
	maj := b.LUT(0xE8, x, y, w)
	b.Output("mix", b.LUT(0x7E, par, maj, w))
	b.Output("and", b.Gate(logic.AND, par, maj))
	b.Output("xor", b.Gate(logic.XOR, par, z))
	return b.MustBuild()
}

// TestDistributedLUT checks the cluster evaluates LUT netlists correctly.
func TestDistributedLUT(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 2, 2)
	nl := lutNetlist()
	for _, m := range []uint64{0, 6, 11, 15} {
		in := bitsOf(m, nl.NumInputs)
		want, err := nl.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := coord.Run(nl, backend.EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range backend.DecryptOutputs(sk, outs) {
			if got != want[i] {
				t.Fatalf("input %d output %d: cluster %v, reference %v", m, i, got, want[i])
			}
		}
	}
}
