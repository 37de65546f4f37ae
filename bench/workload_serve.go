package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"pytfhe/internal/core"
	"pytfhe/internal/params"
	"pytfhe/internal/serve"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/vipbench"
)

// serveClass is one program of the request mix.
type serveClass struct {
	bench  vipbench.Benchmark
	metric string // per-class client latency, traced pass
	prog   *core.Program
}

// serveMix is the request mix, in blocks of five: fan-control 20 % (20 gates,
// RPC-bound), string-search 40 % (wide), parrondo 20 % (serial, a third of it
// deduplicated away), hamming-distance 20 % (wide). Every block holds exactly
// these shares in a seeded order and a tenant finishes the block in flight, so
// every run completes exactly this mix: the executed-bootstrap ratio repeats
// exactly, the median sits inside the string-search class and the 90th
// percentile inside the slowest one.
var serveMix = [5]int{0, 1, 1, 2, 3}

func serveClasses() []*serveClass {
	return []*serveClass{
		{bench: vipbench.FanControl(), metric: "serve.fan_control_ms_p50"},
		{bench: vipbench.StringSearch(), metric: "serve.string_search_ms_p50"},
		{bench: vipbench.Parrondo(), metric: "serve.parrondo_ms_p50"},
		{bench: vipbench.HammingDistance(), metric: "serve.hamming_ms_p50"},
	}
}

// tenant is one closed-loop client: its own key, connection and session.
type tenant struct {
	id     int
	kp     *core.KeyPair
	client *serve.Client
	hashes []string // program hash per class

	ops      []time.Duration
	classOf  []int // class of each completed op
	evalRPC  []time.Duration
	attempts int
	wrong    int
	err      error
}

// runServe is serve_mix_test: a pytfhed subprocess with default flags (plan
// replay, batch 16, QoS on) and W closed-loop tenants at Test parameters.
func runServe(cfg *config, rec *recorder) (*outcome, error) {
	out := newOutcome()
	classes := serveClasses()

	setupSpan := rec.begin("setup", -1, -1, 0)
	t0 := time.Now()
	var binaryBytes, programGates int64
	for _, c := range classes {
		var err error
		rec.wrap("core.Compile", setupSpan, -1, 0, func() { c.prog, err = compileBenchmark(c.bench) })
		if err != nil {
			return nil, err
		}
		binaryBytes += int64(len(c.prog.Binary))
		programGates += int64(c.prog.Stats.Bootstrapped)
	}
	addrFile := filepath.Join(cfg.tmpDir, "pytfhed.addr")
	daemon, err := procs.start("pytfhed", cfg.bin("pytfhed"), nil,
		"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-workers", fmt.Sprint(cfg.workers))
	if err != nil {
		return nil, err
	}
	addr, err := waitAddrFile(addrFile, daemon, 20*time.Second)
	if err != nil {
		return nil, err
	}

	// Tenants join one after another, so each program's plan is compiled by
	// one warm-up evaluation and found cached by the next tenant's.
	var registerMs, openMs []float64
	tenants := make([]*tenant, cfg.workers)
	for id := range tenants {
		tn := &tenant{id: id}
		tenants[id] = tn
		if tn.kp, err = core.GenerateKeysSeeded(params.Test(), cfg.seedBytes(fmt.Sprintf("key-%d", id))); err != nil {
			return nil, err
		}
		if tn.client, err = serve.Dial(addr); err != nil {
			return nil, err
		}
		for _, c := range classes {
			t := time.Now()
			var info *serve.ProgramInfo
			rec.wrap("serve.RegisterProgram", setupSpan, -1, id, func() { info, err = tn.client.RegisterProgram(c.prog.Binary) })
			if err != nil {
				return nil, fmt.Errorf("register %s: %w", c.bench.Name, err)
			}
			registerMs = append(registerMs, float64(time.Since(t).Nanoseconds())/1e6)
			tn.hashes = append(tn.hashes, info.Hash)
		}
		t := time.Now()
		rec.wrap("serve.OpenSession", setupSpan, -1, id, func() { _, err = tn.client.OpenSession(tn.kp.Cloud) })
		if err != nil {
			return nil, fmt.Errorf("open session: %w", err)
		}
		openMs = append(openMs, float64(time.Since(t).Nanoseconds())/1e6)
		warm := cfg.rng(fmt.Sprintf("warmup-%d", id))
		for ci, c := range classes {
			wrong, err := evalChecked(rec, setupSpan, -1, id, tn.kp, c.bench, randomWords(c.bench, warm), "serve.Evaluate",
				func(cts []*lwe.Sample) ([]*lwe.Sample, error) { return tn.client.Evaluate(tn.hashes[ci], cts) })
			if err != nil || wrong {
				return nil, fmt.Errorf("warm-up %s: wrong=%v err=%v", c.bench.Name, wrong, err)
			}
		}
	}
	out.set("setup_s", time.Since(t0).Seconds())
	rec.end(setupSpan)

	var probes *kernelProbes
	if cfg.trace {
		probes = runKernelProbes(cfg, tenants[0].kp, out)
	}

	before, err := tenants[0].client.Stats()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			tn.loop(cfg, rec, classes)
		}(tn)
	}
	wg.Wait()
	window := time.Since(start)
	after, err := tenants[0].client.Stats()
	if err != nil {
		return nil, err
	}

	var ops []time.Duration
	var logicalGates int64
	perClass := make([][]time.Duration, len(classes))
	var fanRPC []time.Duration
	minOps, maxOps := math.MaxInt, 0
	for _, tn := range tenants {
		out.attempted += tn.attempts
		if tn.err != nil {
			out.fail("tenant %d: %v", tn.id, tn.err)
		}
		for i := 0; i < tn.wrong; i++ {
			out.fail("tenant %d: a decrypted result differs from the reference", tn.id)
		}
		ops = append(ops, tn.ops...)
		for i, ci := range tn.classOf {
			perClass[ci] = append(perClass[ci], tn.ops[i])
			logicalGates += int64(classes[ci].prog.Stats.Bootstrapped)
			if ci == 0 {
				fanRPC = append(fanRPC, tn.evalRPC[i])
			}
		}
		minOps, maxOps = min(minOps, len(tn.ops)), max(maxOps, len(tn.ops))
	}
	if len(ops) == 0 {
		return out, nil
	}

	// The daemon must have served the window by plan replay: a fallback to the
	// shared executor or a refusal is a wrong path, counted as a failure.
	evals := after.Evaluations - before.Evaluations
	replays := after.PlanReplays - before.PlanReplays
	fallbacks := after.PlanFallbacks - before.PlanFallbacks
	refused := after.Rejected - before.Rejected + after.QuotaRejected - before.QuotaRejected
	if evals != int64(len(ops)) || replays != evals || fallbacks != 0 || refused != 0 {
		out.fail("daemon served %d evaluations for %d client operations: %d replays, %d fallbacks, %d refused",
			evals, len(ops), replays, fallbacks, refused)
	}
	boots := after.BatchedBootstraps - before.BatchedBootstraps

	for _, tn := range tenants {
		if err := tn.client.Close(); err != nil {
			out.notef("tenant %d close: %v", tn.id, err)
		}
	}
	if err := daemon.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	if err := daemon.wait(30 * time.Second); err != nil {
		out.fail("pytfhed did not drain cleanly: %v", err)
	}

	out.setOps(ops, logicalGates, window)
	out.set("peak_rss_mb", daemon.maxRSSMB())
	out.set("bootstraps_per_gate", float64(boots)/float64(logicalGates))
	out.set("binary_bytes_per_gate", float64(binaryBytes)/float64(programGates))

	if cfg.trace {
		out.setN("trace.op_s_p50", median(seconds(ops)), len(ops))
		out.setN("serve.register_ms", median(registerMs), len(registerMs))
		out.setN("serve.open_session_ms", median(openMs), len(openMs))
		for ci, c := range classes {
			out.setN(c.metric, median(millis(perClass[ci])), len(perClass[ci]))
		}
		for span, metric := range map[string]string{"core.EncryptBits": "serve.client_encrypt_ms_p50", "core.DecryptBits": "serve.client_decrypt_ms_p50"} {
			ms := millis(rec.durations(span)) // warm-up evaluations included
			out.setN(metric, median(ms), len(ms))
		}
		serverFan := after.PerProgramLatency[tenants[0].hashes[0]].P50Ms
		out.set("serve.server_fan_control_ms_p50", serverFan)
		if len(fanRPC) > 0 {
			out.setN("serve.rpc_overhead_ms_p50", median(millis(fanRPC))-serverFan, len(fanRPC))
		}
		lookups := float64(after.PlanHits - before.PlanHits + after.PlanMisses - before.PlanMisses)
		if lookups > 0 {
			out.set("serve.plan_hit_ratio", float64(after.PlanHits-before.PlanHits)/lookups)
		}
		out.set("serve.plan_fallback_share", float64(fallbacks)/float64(max(evals, 1)))
		if batches := after.Batches - before.Batches; batches > 0 {
			out.set("serve.avg_batch_fill", float64(boots)/float64(batches))
			out.set("serve.cross_run_batch_share", float64(after.CrossRunBatches-before.CrossRunBatches)/float64(batches))
		}
		out.set("serve.rejected", float64(refused))
		out.set("serve.replay_bootstraps_per_s", float64(boots)/window.Seconds())
		out.set("qos.tenant_ops_skew", float64(maxOps)/float64(max(minOps, 1)))
		// All W tenants keep the W workers busy for the whole window, so the
		// kernel's prediction is for the window, not for one operation.
		reconcileKernel(out, float64(boots)*probes.gateBatch16Ns/1e9/float64(cfg.workers), window.Seconds())
	}
	return out, nil
}

// loop is one tenant's closed loop over the seeded request sequence.
func (tn *tenant) loop(cfg *config, rec *recorder, classes []*serveClass) {
	order := cfg.rng(fmt.Sprintf("sequence-%d", tn.id))
	inputs := cfg.rng(fmt.Sprintf("inputs-%d", tn.id))
	var block [len(serveMix)]int
	var ops []time.Duration
	ops, _, tn.err = closedLoop(cfg.window, len(block), func(i int) error {
		if i%len(block) == 0 {
			block = serveMix
			for j := len(block) - 1; j > 0; j-- { // seeded Fisher–Yates
				k := int(order.Uint32() % uint32(j+1))
				block[j], block[k] = block[k], block[j]
			}
		}
		ci := block[i%len(block)]
		c := classes[ci]
		tn.attempts++
		req := tn.id<<20 | i
		opSpan := rec.begin("op:"+c.bench.Name, -1, req, tn.id)
		defer rec.end(opSpan)
		var rpc time.Duration
		wrong, err := evalChecked(rec, opSpan, req, tn.id, tn.kp, c.bench, randomWords(c.bench, inputs), "serve.Evaluate",
			func(cts []*lwe.Sample) ([]*lwe.Sample, error) {
				t := time.Now()
				outs, err := tn.client.Evaluate(tn.hashes[ci], cts)
				rpc = time.Since(t)
				return outs, err
			})
		if err != nil {
			return fmt.Errorf("%s: %w", c.bench.Name, err)
		}
		if wrong {
			tn.wrong++
		}
		tn.classOf = append(tn.classOf, ci)
		tn.evalRPC = append(tn.evalRPC, rpc)
		return nil
	})
	tn.ops = ops
}
