package main

import (
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/core"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/vipbench"
)

// runHamming is hamming128_local: VIP-Bench hamming-distance at Default128,
// built in-process exactly as `pytfhe run -backend auto -workers W` builds
// it, evaluations back to back for the window.
func runHamming(cfg *config, rec *recorder) (*outcome, error) {
	out := newOutcome()
	p := params.Default128()
	if cfg.quick {
		p = params.Test()
	}
	b := vipbench.HammingDistance()

	// Set-up runs once: a second Default128 key generation would leave a
	// 220 MB key as garbage and raise the peak resident set this workload
	// reports.
	setupSpan := rec.begin("setup", -1, -1, 0)
	t0 := time.Now()
	var prog *core.Program
	var err error
	rec.wrap("core.Compile", setupSpan, -1, 0, func() { prog, err = compileBenchmark(b) })
	if err != nil {
		return nil, err
	}
	var kp *core.KeyPair
	tKey := time.Now()
	rec.wrap("core.GenerateKeysSeeded", setupSpan, -1, 0, func() { kp, err = core.GenerateKeysSeeded(p, cfg.seedBytes("key")) })
	if err != nil {
		return nil, err
	}
	keygen := time.Since(tKey)
	be := backend.NewAsyncSched(kp.Cloud, cfg.workers, backend.SchedCritical)
	out.set("setup_s", time.Since(t0).Seconds())
	rec.end(setupSpan)

	var probes *kernelProbes
	if cfg.trace {
		out.set("boot.keygen_s", keygen.Seconds())
		probes = runKernelProbes(cfg, kp, out)
	}

	rng := cfg.rng("inputs")
	gates := int64(prog.Stats.Bootstrapped)
	var execBoots, execGates int64
	var busy, queueWait time.Duration
	var utilization []float64
	wrongs := 0
	ops, window, err := closedLoop(cfg.window, 1, func(i int) error {
		out.attempted++
		opSpan := rec.begin("op", -1, i, 0)
		defer rec.end(opSpan)
		wrong, err := evalChecked(rec, opSpan, i, 0, kp, b, randomWords(b, rng), "core.Run",
			func(cts []*lwe.Sample) ([]*lwe.Sample, error) { return core.Run(prog, be, cts) })
		if err != nil {
			return err
		}
		if wrong {
			out.fail("evaluation %d decrypted to the wrong distance", i)
			wrongs++
		}
		st := be.Stats
		execBoots += int64(st.Bootstraps)
		execGates += int64(st.Gates)
		busy += st.WorkerBusy
		queueWait += st.QueueWait
		utilization = append(utilization, st.Utilization)
		return nil
	})
	if err != nil {
		out.fail("evaluation %d: %v", len(ops), err)
	}
	if len(ops) == 0 {
		return out, nil
	}
	out.setOps(ops, int64(len(ops)-wrongs)*gates, window)
	out.set("peak_rss_mb", selfMaxRSSMB())
	out.set("bootstraps_per_gate", float64(execBoots)/float64(int64(len(ops))*gates))
	out.set("binary_bytes_per_gate", float64(len(prog.Binary))/float64(gates))

	if cfg.trace {
		out.setN("trace.op_s_p50", median(seconds(ops)), len(ops))
		out.set("exec.utilization", median(utilization))
		out.set("exec.queue_wait_us_per_gate", float64(queueWait.Microseconds())/float64(execGates))
		kernel := time.Duration(float64(execBoots) * probes.gateBinaryNs)
		out.set("exec.dispatch_us_per_gate", float64((busy-kernel).Microseconds())/float64(execGates))
		perEval := float64(execBoots) / float64(len(ops))
		reconcileKernel(out, perEval*probes.gateBinaryNs/1e9/float64(cfg.workers), median(seconds(ops)))
	}
	return out, nil
}
