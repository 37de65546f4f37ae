// Encrypted self-attention: build a BERT-style single-head self-attention
// layer from ChiselTorch tensor primitives (matmul, transpose, relu),
// compile it to TFHE gates, and run it homomorphically — the paper's
// demonstration that non-native layers compose from Table I's primitives.
//
//	go run ./examples/attention
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/core"
	"pytfhe/internal/models"
	"pytfhe/internal/params"
	"pytfhe/internal/vipbench"
)

func main() {
	// A mid-size attention layer for compile-time statistics. (The paper's
	// full Attention_S, hidden 32, compiles to ~7.4M gates — run
	// `pytfhe compile` or cmd/experiments for the full build.)
	full := models.AttentionS().Scaled(4, 16)
	fmt.Printf("compiling %s (seq=%d, hidden=%d, Fixed(8,8))...\n", full.Name, full.Seq, full.Hidden)
	t0 := time.Now()
	w, err := vipbench.CompileAttention(full, chiseltorch.NewFixed(8, 8))
	if err != nil {
		log.Fatal(err)
	}
	s := w.Netlist.ComputeStats()
	fmt.Printf("  %d gates (%d bootstrapped), depth %d (compiled in %v)\n",
		s.Gates, s.Bootstrapped, s.Depth, time.Since(t0).Round(time.Millisecond))

	// Homomorphic run of a small layer (a narrow fixed-point type keeps
	// the encrypted-by-encrypted score matmuls cheap on a laptop).
	spec := models.AttentionS().Scaled(2, 2)
	ws, err := vipbench.CompileAttention(spec, chiseltorch.NewFixed(3, 3))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := core.Compile(ws.Netlist)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhomomorphic attention (seq=%d, hidden=%d): %d gates\n",
		spec.Seq, spec.Hidden, prog.Stats.Bootstrapped)

	kp, err := core.GenerateKeys(params.Test())
	if err != nil {
		log.Fatal(err)
	}
	in := make([]float64, spec.Seq*spec.Hidden)
	for i := range in {
		in[i] = math.Sin(float64(i)) / 2
	}
	bits, err := ws.Compiled.EncodeInput(in)
	if err != nil {
		log.Fatal(err)
	}
	want, err := ws.Compiled.Infer(in)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	be := backend.NewPlanned(kp.Cloud, 1, backend.DefaultBatch) // what `pytfhe run` builds by default
	defer be.Close()
	outs, err := core.Run(prog, be, kp.EncryptBits(bits))
	if err != nil {
		log.Fatal(err)
	}
	got := ws.Compiled.DecodeOutput(kp.DecryptBits(outs))
	fmt.Printf("  evaluated in %v\n", time.Since(start).Round(time.Millisecond))
	for i := range want {
		if want[i] != got[i] {
			log.Fatalf("output %d mismatch: %g vs %g", i, want[i], got[i])
		}
	}
	fmt.Printf("  context[0] = %.3f ... matches plaintext reference. OK\n", got[0])
}
