// Privacy-preserving MNIST inference: declare the paper's Fig. 4 CNN with
// the ChiselTorch API, compile it to a TFHE gate program, and classify an
// encrypted digit.
//
// The homomorphic run uses a reduced image size and the test parameter set
// so the example completes in seconds; the full MNIST_S (28×28, Linear(576,
// 10)) is compiled and inspected as well, with plaintext inference as the
// functional check.
//
//	go run ./examples/mnist
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
	// --- full-size MNIST_S: compile and inspect -------------------------
	full := models.MNISTS()
	fmt.Printf("compiling %s (%dx%d, Linear(%d,%d), Fixed(8,8))...\n",
		full.Name, full.Image, full.Image, full.FlatSize(), full.Classes)
	t0 := time.Now()
	w, err := vipbench.CompileMNIST(full, chiseltorch.NewFixed(8, 8))
	if err != nil {
		log.Fatal(err)
	}
	s := w.Netlist.ComputeStats()
	fmt.Printf("  %d gates (%d bootstrapped), depth %d, %d wavefronts (compiled in %v)\n",
		s.Gates, s.Bootstrapped, s.Depth, s.Levels, time.Since(t0).Round(time.Millisecond))

	// Plaintext inference on a synthetic digit.
	img := syntheticDigit(full.Image)
	logits, err := w.Compiled.Infer(img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  plaintext logits: %s -> class %d\n", fmtVec(logits), argmax(logits))

	// --- homomorphic inference on a scaled model ------------------------
	spec := full.Scaled(5)
	fmt.Printf("\nhomomorphic inference with %s (%dx%d) under test parameters...\n",
		spec.Name, spec.Image, spec.Image)
	ws, err := vipbench.CompileMNIST(spec, chiseltorch.NewFixed(8, 8))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := core.Compile(ws.Netlist)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d gates to evaluate\n", prog.Stats.Bootstrapped)

	kp, err := core.GenerateKeys(params.Test())
	if err != nil {
		log.Fatal(err)
	}
	small := syntheticDigit(spec.Image)
	bits, err := ws.Compiled.EncodeInput(small)
	if err != nil {
		log.Fatal(err)
	}
	want, err := ws.Compiled.Infer(small)
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
	elapsed := time.Since(start)
	got := ws.Compiled.DecodeOutput(kp.DecryptBits(outs))
	fmt.Printf("  homomorphic logits: %s -> class %d (in %v, %.0f gates/s)\n",
		fmtVec(got), argmax(got), elapsed.Round(time.Millisecond),
		float64(prog.Stats.Bootstrapped)/elapsed.Seconds())

	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			log.Fatalf("logit %d mismatch: plaintext %g vs homomorphic %g", i, want[i], got[i])
		}
	}
	fmt.Println("  homomorphic result matches plaintext inference bit-for-bit. OK")
}

// syntheticDigit draws a bright diagonal stroke on a dark background.
func syntheticDigit(size int) []float64 {
	img := make([]float64, size*size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			d := math.Abs(float64(x - y))
			img[y*size+x] = math.Max(0, 0.9-0.3*d)
		}
	}
	return img
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

func fmtVec(v []float64) string {
	out := "["
	for i, x := range v {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", x)
	}
	return out + "]"
}
