// Multi-bit LUT execution: the synthesized path to programmable
// bootstrapping. The paper's §II.B highlights TFHE's "fast programmable
// bootstrapping which reduces the noise of a ciphertext while
// simultaneously performing an arbitrary lookup-table operation"; this
// example shows the compiler putting that capability to work on ordinary
// boolean circuits. The synth lut-cluster pass collapses fanout-free cones
// of 2-input gates into k-input LUT gates (k <= 3), each evaluated with a
// single programmable bootstrap — a parity chain that costs one bootstrap
// per XOR on the classic path costs one bootstrap per *three* XORs after
// clustering, bit-exactly.
//
//	go run ./examples/lut
package main

import (
	"fmt"
	"log"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/core"
	"pytfhe/internal/params"
)

// demoNetlist builds the cone-heavy shape lut-cluster is for: an 8-input
// parity chain (seven XORs in a line, every interior node single-use) and
// a majority vote over three AND pairs. `pytfhe check -examples` analyzes
// this same netlist; keep the two in sync.
func demoNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("lut-demo", circuit.AllOptimizations())
	xs := b.Inputs("x", 8)
	par := xs[0]
	for _, x := range xs[1:] {
		par = b.Xor(par, x)
	}
	b.Output("parity", par)
	maj := b.LUT(0xE8, // MAJ(a,b,c)
		b.And(xs[0], xs[1]),
		b.And(xs[2], xs[3]),
		b.And(xs[4], xs[5]))
	b.Output("majority", maj)
	return b.MustBuild()
}

func main() {
	nl := demoNetlist()

	// Compile twice: the classic pipeline, and the same pipeline with the
	// lut-cluster pass appended.
	classic, err := core.Compile(nl)
	if err != nil {
		log.Fatal(err)
	}
	clustered, err := core.CompileLUT(nl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classic:   %d gates, %d bootstraps\n",
		classic.Stats.Gates, classic.Stats.Bootstrapped)
	fmt.Printf("clustered: %d gates, %d bootstraps (%d multi-input LUTs)\n",
		clustered.Stats.Gates, clustered.Stats.Bootstrapped, clustered.Stats.LUTs)

	fmt.Println("generating keys (test parameters)...")
	kp, err := core.GenerateKeys(params.Test())
	if err != nil {
		log.Fatal(err)
	}
	be := backend.NewPlanned(kp.Cloud, 1, backend.DefaultBatch) // what `pytfhe run` builds by default
	defer be.Close()

	for _, m := range []uint64{0b10110101, 0b00001111, 0b11100111} {
		bits := make([]bool, 8)
		for i := range bits {
			bits[i] = m>>uint(i)&1 == 1
		}
		want, err := nl.Evaluate(bits)
		if err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		outs, err := core.Run(clustered, be, kp.EncryptBits(bits))
		if err != nil {
			log.Fatal(err)
		}
		got := kp.DecryptBits(outs)
		fmt.Printf("  x=%08b  parity=%s majority=%s  (%v)\n",
			m, bit(got[0]), bit(got[1]), time.Since(start).Round(time.Millisecond))
		for i := range want {
			if got[i] != want[i] {
				log.Fatalf("output %d: clustered path %v, cleartext reference %v", i, got[i], want[i])
			}
		}

		// The classic binary computes the identical function — more
		// bootstraps, same bits.
		couts, err := core.Run(classic, be, kp.EncryptBits(bits))
		if err != nil {
			log.Fatal(err)
		}
		for i, c := range kp.DecryptBits(couts) {
			if c != want[i] {
				log.Fatalf("output %d: classic path %v, cleartext reference %v", i, c, want[i])
			}
		}
	}
	fmt.Println("clustered and classic paths agree under encryption. OK")
}

func bit(v bool) string {
	if v {
		return "1"
	}
	return "0"
}
