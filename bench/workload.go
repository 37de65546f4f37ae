package main

import (
	"fmt"
	"slices"
	"time"

	"pytfhe/internal/core"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/trand"
	"pytfhe/internal/vipbench"
)

// closedLoop runs op back to back until the window has elapsed, finishing the
// operation in flight: an FHE caller waits for its ciphertext before sending
// the next. Operations come in blocks of `block`; the loop ends only on a block
// boundary, so a workload whose blocks hold a fixed mix completes exactly that
// mix. It stops at the first error, which the caller counts as a failed
// operation. It returns the time of each successful operation and the
// wall-clock from the first start to the last end.
func closedLoop(window time.Duration, block int, op func(i int) error) ([]time.Duration, time.Duration, error) {
	var ops []time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return ops, time.Since(start), err
		}
		ops = append(ops, time.Since(t0))
		if (i+1)%block == 0 && time.Since(start) >= window {
			return ops, time.Since(start), nil
		}
	}
}

// randomWords draws one uniformly random value per input word of b.
func randomWords(b vipbench.Benchmark, rng *trand.Source) []uint64 {
	words := make([]uint64, len(b.InputBits))
	for i, w := range b.InputBits {
		words[i] = rng.Uint64() & (1<<uint(w) - 1)
	}
	return words
}

// compileBenchmark is the path `pytfhe compile -bench` takes.
func compileBenchmark(b vipbench.Benchmark) (*core.Program, error) {
	nl, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	prog, err := core.Compile(nl)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return prog, nil
}

// evalChecked is one client-observed encrypted evaluation: encode and encrypt
// the words, run evaluate, decrypt and decode, and compare with the
// benchmark's plaintext reference. wrong reports a decrypted result that
// differs from the reference; err an operation that did not complete.
func evalChecked(rec *recorder, parent, req, lane int, kp *core.KeyPair, b vipbench.Benchmark, words []uint64,
	evalName string, evaluate func(cts []*lwe.Sample) ([]*lwe.Sample, error)) (wrong bool, err error) {
	bits, err := b.EncodeInputs(words)
	if err != nil {
		return false, err
	}
	var cts, outs []*lwe.Sample
	rec.wrap("core.EncryptBits", parent, req, lane, func() { cts = kp.EncryptBits(bits) })
	rec.wrap(evalName, parent, req, lane, func() { outs, err = evaluate(cts) })
	if err != nil {
		return false, err
	}
	var plain []bool
	rec.wrap("core.DecryptBits", parent, req, lane, func() { plain = kp.DecryptBits(outs) })
	got, err := b.DecodeOutputs(plain)
	if err != nil {
		return false, err
	}
	return !slices.Equal(got, b.Ref(words)), nil
}

// reconcileKernel compares the time the kernel probes predict for one
// operation (executed bootstraps × the matching gate probe ÷ W) with the
// measured one.
func reconcileKernel(out *outcome, predicted, measured float64) {
	ratio := predicted / measured
	out.set("recon.kernel_ratio", ratio)
	out.reconcile(ratio >= 0.85 && ratio <= 1.15, "recon.kernel_ratio %.3f (kernel probes predict %.4fs, measured %.4fs)", ratio, predicted, measured)
}
