package main

import (
	"fmt"
	"sync"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/cluster"
	"pytfhe/internal/core"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/shard"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/vipbench"
)

// runCluster is cluster_dot_test: this process is the coordinator, W
// pytfhe-worker subprocesses with one slot each join it, and dot-product
// runs as cached plan shards at Test parameters for the window.
func runCluster(cfg *config, rec *recorder) (*outcome, error) {
	out := newOutcome()
	b := vipbench.DotProduct()
	if cfg.quick {
		b = vipbench.HammingDistance()
	}

	setupSpan := rec.begin("setup", -1, -1, 0)
	t0 := time.Now()
	var prog *core.Program
	var err error
	rec.wrap("core.Compile", setupSpan, -1, 0, func() { prog, err = compileBenchmark(b) })
	if err != nil {
		return nil, err
	}
	kp, err := core.GenerateKeysSeeded(params.Test(), cfg.seedBytes("key"))
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(kp.Cloud, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Closed once: by the success path, which reports the error; by the join
	// timer; or on an error return, where the error already in hand matters more.
	var closeOnce sync.Once
	var closeErr error
	closeCoord := func() error {
		closeOnce.Do(func() { closeErr = coord.Close() })
		return closeErr
	}
	defer closeCoord()
	workers := make([]*child, cfg.workers)
	tJoin := time.Now()
	for i := range workers {
		if workers[i], err = procs.start("pytfhe-worker", cfg.bin("pytfhe-worker"), nil, "-join", coord.Addr(), "-slots", "1"); err != nil {
			return nil, err
		}
	}
	// AcceptWorkers has no deadline of its own; closing the listener ends it
	// if a worker never arrives.
	joinTimer := time.AfterFunc(30*time.Second, func() { closeCoord() })
	rec.wrap("cluster.AcceptWorkers", setupSpan, -1, 0, func() { err = coord.AcceptWorkers(cfg.workers) })
	joinTimer.Stop()
	if err != nil {
		return nil, fmt.Errorf("workers did not join: %w", err)
	}
	join := time.Since(tJoin)

	rng := cfg.rng("inputs")
	evaluate := func(cts []*lwe.Sample) ([]*lwe.Sample, error) { return coord.RunSharded(prog.Netlist, cts) }
	tFirst := time.Now()
	wrong, err := evalChecked(rec, setupSpan, -1, 0, kp, b, randomWords(b, rng), "cluster.RunSharded", evaluate)
	if err != nil || wrong {
		return nil, fmt.Errorf("warm-up run: wrong=%v err=%v", wrong, err)
	}
	firstRun := time.Since(tFirst)
	first := coord.LastStat
	out.set("setup_s", time.Since(t0).Seconds())
	rec.end(setupSpan)

	var probes *kernelProbes
	if cfg.trace {
		probes = runKernelProbes(cfg, kp, out)
	}

	gates := int64(prog.Stats.Bootstrapped)
	var wireBytes, boundaryBytes, execBoots int64
	var hits, misses int
	wrongs := 0
	ops, window, err := closedLoop(cfg.window, 1, func(i int) error {
		out.attempted++
		opSpan := rec.begin("op", -1, i, 0)
		defer rec.end(opSpan)
		wrong, err := evalChecked(rec, opSpan, i, 0, kp, b, randomWords(b, rng), "cluster.RunSharded", evaluate)
		if err != nil {
			return err
		}
		st := coord.LastStat
		switch {
		case wrong:
			out.fail("evaluation %d decrypted to the wrong result", i)
			wrongs++
		case st.WorkersLost != 0 || st.ShardMisses != 0:
			// A steady-state run must find every shard resident on a live worker.
			out.fail("evaluation %d left the steady-state path: %d workers lost, %d shard misses", i, st.WorkersLost, st.ShardMisses)
			wrongs++
		}
		wireBytes += st.WireBytesSent + st.WireBytesRecv
		boundaryBytes += st.BoundaryBytes
		execBoots += int64(st.Bootstraps)
		hits += st.ShardHits
		misses += st.ShardMisses
		return nil
	})
	if err != nil {
		out.fail("evaluation %d: %v", len(ops), err)
	}
	if len(ops) == 0 {
		return out, nil
	}
	n := int64(len(ops))
	out.setOps(ops, (n-int64(wrongs))*gates, window)
	out.set("bootstraps_per_gate", float64(execBoots)/float64(n*gates))
	out.set("binary_bytes_per_gate", float64(len(prog.Binary))/float64(gates))

	if cfg.trace {
		opP50 := median(seconds(ops))
		out.setN("trace.op_s_p50", opP50, len(ops))
		out.set("cluster.join_ms", float64(join.Nanoseconds())/1e6)
		out.set("cluster.first_run_s", firstRun.Seconds())
		out.set("cluster.shard_bytes_shipped", float64(first.ShardBytesShipped))
		out.set("cluster.wire_bytes_per_eval", float64(wireBytes)/float64(n))
		out.set("cluster.boundary_bytes_per_eval", float64(boundaryBytes)/float64(n))
		out.set("cluster.shard_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
		reconcileKernel(out, float64(execBoots)/float64(n)*probes.gateBatch16Ns/1e9/float64(cfg.workers), opP50)
		if err := clusterBaselines(cfg, rec, out, coord, kp, prog, b); err != nil {
			return nil, err
		}
	}

	// Closing the coordinator tells the workers to exit; their peak resident
	// sets are read once they have.
	if err := closeCoord(); err != nil {
		out.notef("coordinator close: %v", err)
	}
	rss := selfMaxRSSMB()
	for _, w := range workers {
		if err := w.wait(20 * time.Second); err != nil {
			out.fail("worker did not exit cleanly: %v", err)
		}
		rss += w.maxRSSMB()
	}
	out.set("peak_rss_mb", rss)
	return out, nil
}

// clusterBaselines measures what the sharded run is compared with: the plan
// and its split, the same plan replayed in-process (the gap to it is the cost
// of distribution), and the per-gate dispatch path on a small program.
func clusterBaselines(cfg *config, rec *recorder, out *outcome, coord *cluster.Coordinator, kp *core.KeyPair, prog *core.Program, b vipbench.Benchmark) error {
	t := time.Now()
	p, err := plan.Compile(prog.Netlist, cfg.workers)
	if err != nil {
		return err
	}
	out.set("plan.compile_s", time.Since(t).Seconds())
	st := p.Stats()
	out.set("plan.dedup_ratio", float64(st.ExecGates)/float64(st.LogicalGates))
	out.set("plan.levels", float64(st.Levels))
	out.set("plan.arena_slots", float64(st.ArenaSlots))
	t = time.Now()
	sharding, err := shard.Split(p, cfg.workers)
	if err != nil {
		return err
	}
	out.set("shard.split_ms", float64(time.Since(t).Nanoseconds())/1e6)
	out.set("shard.levels", float64(len(sharding.Plan.Levels())))

	rng := cfg.rng("baseline")
	local := backend.NewPlannedBatch(kp.Cloud, cfg.workers, 16)
	var runs []float64
	for i := 0; i < 3; i++ { // the first run compiles the plan and is not timed
		t := time.Now()
		wrong, err := evalChecked(rec, -1, -1, 0, kp, b, randomWords(b, rng), "backend.Planned.Run",
			func(cts []*lwe.Sample) ([]*lwe.Sample, error) { return core.Run(prog, local, cts) })
		if err != nil || wrong {
			return fmt.Errorf("in-process plan replay: wrong=%v err=%v", wrong, err)
		}
		if i > 0 {
			runs = append(runs, time.Since(t).Seconds())
		}
	}
	replay := float64(prog.Stats.Bootstrapped) / median(runs)
	out.set("plan.replay_gates_per_s", replay)
	out.set("cluster.efficiency", out.metrics["gates_per_s"]/replay)

	hb := vipbench.HammingDistance()
	hprog, err := compileBenchmark(hb)
	if err != nil {
		return err
	}
	t = time.Now()
	wrong, err := evalChecked(rec, -1, -1, 0, kp, hb, randomWords(hb, rng), "cluster.Run",
		func(cts []*lwe.Sample) ([]*lwe.Sample, error) { return coord.Run(hprog.Netlist, cts) })
	if err != nil || wrong {
		return fmt.Errorf("gate dispatch: wrong=%v err=%v", wrong, err)
	}
	out.set("cluster.gate_dispatch_gates_per_s", float64(hprog.Stats.Bootstrapped)/time.Since(t).Seconds())
	gs := coord.LastStat
	out.set("cluster.gate_dispatch_wire_bytes", float64(gs.WireBytesSent+gs.WireBytesRecv))
	return nil
}
