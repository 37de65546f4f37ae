package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// ImbalancedNetlist builds the deep, irregular ripple workload the executor
// benchmarks share: seven serial NAND chains of unequal depths {30, 30, 30,
// 30, 30, 12, 6} against one shared operand, with builder optimizations off
// so the logical gate count is exactly the sum of the depths. Most
// wavefronts hold five ready gates — one more than four workers — so
// barriered executors pay a nearly-empty second round per level, while the
// chains' period-2 ciphertext sequences give the plan backend's exact
// functional deduplication its best case.
func ImbalancedNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("ripple-imbalanced", circuit.NoOptimizations())
	depths := []int{30, 30, 30, 30, 30, 12, 6}
	ins := b.Inputs("x", len(depths)+1)
	for c, depth := range depths {
		cur := ins[c]
		for d := 0; d < depth; d++ {
			cur = b.Gate(logic.NAND, cur, ins[len(depths)])
		}
		b.Output("o", cur)
	}
	return b.MustBuild()
}

// PlanBenchReport is one point on the plan-replay performance trajectory:
// the capture/replay backend against the dynamic executors on the same
// netlist at the same worker count, plus the capture statistics that explain
// the gap. Throughput is logical bootstraps per second — the program's
// effective throughput, so deduplication counts as speedup. (Earlier
// revisions serialized these under *_gates_per_sec names; LoadPlanBaseline
// still reads both.) Serialized to BENCH_PLAN.json by `make bench`.
type PlanBenchReport struct {
	Netlist               string  `json:"netlist"`
	Workers               int     `json:"workers"`
	LogicalGates          int     `json:"logical_gates"`
	LogicalBootstraps     int     `json:"logical_bootstraps"`
	ExecBootstraps        int     `json:"exec_bootstraps"`
	Levels                int     `json:"levels"`
	ArenaSlots            int     `json:"arena_slots"`
	CompileMs             float64 `json:"compile_ms"`
	AsyncBootstrapsPerSec float64 `json:"async_bootstraps_per_sec"`
	PlanBootstrapsPerSec  float64 `json:"plan_bootstraps_per_sec"`
	// PlanSpeedup is PlanBootstrapsPerSec / AsyncBootstrapsPerSec, the
	// acceptance metric (must be ≥ 1.2 at 4 workers).
	PlanSpeedup float64 `json:"plan_speedup_vs_async"`

	// Batching on the one bootstrap engine: gate.Binary one gate at a time
	// against gate.BinaryBatch on one core, 64 independent NAND gates per
	// measurement. BatchBootstrapsPerSec is the batch-16 point (the
	// parity-guarded figure). Single and batch-1 run the same pipeline and
	// coincide, so BatchSpeedup = batch-16 / single is key-streaming
	// amortisation alone — a few percent at Test parameters, where the
	// whole bootstrapping key fits in cache. (It read ≈ 2× while the
	// single-gate path ran on a second, slower transform engine.)
	SingleBootstrapsPerSec float64      `json:"single_bootstraps_per_sec"`
	BatchBootstrapsPerSec  float64      `json:"batch_bootstraps_per_sec"`
	BatchSpeedup           float64      `json:"batch_speedup_vs_single"`
	BatchSweep             []BatchPoint `json:"batch_sweep,omitempty"`

	// Cluster execution paths on an in-process TCP cluster: per-gate
	// operand dispatch against cached-shard plan replay. The headline
	// figures are the 4-worker point of ShardSweep; the wire-byte pair is
	// the data-plane claim — per steady-state run the shard path ships
	// O(cut edges) boundary ciphertexts where gate dispatch ships O(gates)
	// operands, so ShardWireBytesPerRun must stay strictly below
	// GateWireBytesPerRun (enforced by CheckPlanParity).
	GateBootstrapsPerSec  float64      `json:"gate_dispatch_bootstraps_per_sec"`
	GateWireBytesPerRun   int64        `json:"gate_dispatch_wire_bytes_per_run"`
	ShardBootstrapsPerSec float64      `json:"shard_bootstraps_per_sec"`
	ShardWireBytesPerRun  int64        `json:"shard_wire_bytes_per_run"`
	ShardSpeedup          float64      `json:"shard_speedup_vs_gate_dispatch"`
	ShardSweep            []ShardPoint `json:"shard_sweep,omitempty"`

	// LUT is the multi-bit LUT synthesis on/off sweep on LUTBenchNetlist
	// (see LUTSweepBench); nil in reports written before the LUT path
	// existed, which LoadPlanBaseline and CheckPlanParity tolerate.
	LUT *LUTSweepReport `json:"lut_sweep,omitempty"`
}

// BatchPoint is one batch-size measurement of the batched kernel sweep.
type BatchPoint struct {
	Batch            int     `json:"batch"`
	BootstrapsPerSec float64 `json:"bootstraps_per_sec"`
}

// PlanBench measures the plan backend against Async on one netlist. The
// plan backend — the same slice scheduler pytfhed serves from — runs once
// untimed to pay the capture, then the timed runs replay the cached plan:
// the steady state of a server evaluating the same program repeatedly.
func PlanBench(ck *boot.CloudKey, nl *circuit.Netlist, inputs []*lwe.Sample, workers int) (*PlanBenchReport, error) {
	boots := float64(nl.ComputeStats().Bootstrapped)
	r := &PlanBenchReport{Netlist: nl.Name, Workers: workers}

	async := backend.NewAsync(ck, workers, 1)
	if _, err := async.Run(nl, inputs); err != nil {
		return nil, fmt.Errorf("experiments: plan bench async(%d): %w", workers, err)
	}
	r.AsyncBootstrapsPerSec = async.Stats.BootstrapsPerSec

	planned := backend.NewPlanned(ck, workers, 1)
	defer planned.Close()
	if _, err := planned.Run(nl, inputs); err != nil { // untimed capture
		return nil, fmt.Errorf("experiments: plan bench capture(%d): %w", workers, err)
	}
	const replays = 3
	start := time.Now()
	for i := 0; i < replays; i++ {
		if _, err := planned.Run(nl, inputs); err != nil {
			return nil, fmt.Errorf("experiments: plan bench replay(%d): %w", workers, err)
		}
	}
	if e := time.Since(start).Seconds(); e > 0 {
		r.PlanBootstrapsPerSec = replays * boots / e
	}

	ps := planned.PlanStats
	r.LogicalGates = ps.LogicalGates
	r.LogicalBootstraps = ps.LogicalBootstraps
	r.ExecBootstraps = ps.ExecBootstraps
	r.Levels = ps.Levels
	r.ArenaSlots = ps.ArenaSlots
	r.CompileMs = float64(ps.CompileTime.Microseconds()) / 1e3
	if r.AsyncBootstrapsPerSec > 0 {
		r.PlanSpeedup = r.PlanBootstrapsPerSec / r.AsyncBootstrapsPerSec
	}

	r.SingleBootstrapsPerSec, r.BatchSweep = batchKernelBench(ck)
	for _, pt := range r.BatchSweep {
		if pt.Batch == 16 {
			r.BatchBootstrapsPerSec = pt.BootstrapsPerSec
		}
	}
	if r.SingleBootstrapsPerSec > 0 {
		r.BatchSpeedup = r.BatchBootstrapsPerSec / r.SingleBootstrapsPerSec
	}

	var err error
	if r.ShardSweep, err = ClusterBench(ck, nl, inputs, []int{2, 4}); err != nil {
		return nil, err
	}
	for _, pt := range r.ShardSweep {
		if pt.Workers == 4 {
			r.GateBootstrapsPerSec = pt.GateBootstrapsPerSec
			r.GateWireBytesPerRun = pt.GateWireBytesPerRun
			r.ShardBootstrapsPerSec = pt.ShardBootstrapsPerSec
			r.ShardWireBytesPerRun = pt.ShardWireBytesPerRun
		}
	}
	if r.GateBootstrapsPerSec > 0 {
		r.ShardSpeedup = r.ShardBootstrapsPerSec / r.GateBootstrapsPerSec
	}
	return r, nil
}

// batchKernelBench measures single-gate calls against batched ones on one
// core: 64 independent NAND gates per repetition, through gate.Binary and
// through gate.BinaryBatch chunked at each sweep size. The inputs are
// random-mask samples rather than trivial ones — a zero mask lets blind
// rotation skip every CMux (the bara==0 short-circuit), which would time a
// bootstrap that never rotates.
func batchKernelBench(ck *boot.CloudKey) (single float64, sweep []BatchPoint) {
	const lanes, reps = 64, 2
	rng := trand.NewSeeded([]byte("batch-kernel-bench"))
	kinds := make([]logic.Kind, lanes)
	xs := make([]*gate.Ciphertext, lanes)
	ys := make([]*gate.Ciphertext, lanes)
	outs := make([]*gate.Ciphertext, lanes)
	randomize := func(s *lwe.Sample) {
		for j := range s.A {
			s.A[j] = torus.Torus32(rng.Torus32())
		}
		s.B = torus.Torus32(rng.Torus32())
	}
	for m := range kinds {
		kinds[m] = logic.NAND
		xs[m] = gate.NewCiphertext(ck.Params)
		ys[m] = gate.NewCiphertext(ck.Params)
		outs[m] = gate.NewCiphertext(ck.Params)
		randomize(xs[m])
		randomize(ys[m])
	}
	eng := gate.NewEngine(ck)
	start := time.Now()
	for rep := 0; rep < reps; rep++ {
		for m := 0; m < lanes; m++ {
			if err := eng.Binary(kinds[m], outs[m], xs[m], ys[m]); err != nil {
				return 0, nil
			}
		}
	}
	if e := time.Since(start).Seconds(); e > 0 {
		single = reps * lanes / e
	}
	for _, size := range []int{1, 4, 16, 64} {
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			for lo := 0; lo < lanes; lo += size {
				if err := eng.BinaryBatch(kinds[lo:lo+size], outs[lo:lo+size], xs[lo:lo+size], ys[lo:lo+size]); err != nil {
					return single, sweep
				}
			}
		}
		pt := BatchPoint{Batch: size}
		if e := time.Since(start).Seconds(); e > 0 {
			pt.BootstrapsPerSec = reps * lanes / e
		}
		sweep = append(sweep, pt)
	}
	return single, sweep
}

// WritePlanBench serializes the report as indented JSON at path.
func WritePlanBench(path string, r *PlanBenchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: marshal plan bench: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadPlanBaseline reads a committed BENCH_PLAN.json. It tolerates both
// the current *_bootstraps_per_sec field names and the *_gates_per_sec
// names earlier revisions wrote (the values were always bootstraps per
// second; only the labels were wrong), so parity checks keep working
// across the rename.
func LoadPlanBaseline(path string) (*PlanBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: read plan baseline: %w", err)
	}
	var r PlanBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("experiments: parse plan baseline %s: %w", path, err)
	}
	var legacy struct {
		Async float64 `json:"async_gates_per_sec"`
		Plan  float64 `json:"plan_gates_per_sec"`
	}
	if err := json.Unmarshal(data, &legacy); err == nil {
		if r.AsyncBootstrapsPerSec == 0 {
			r.AsyncBootstrapsPerSec = legacy.Async
		}
		if r.PlanBootstrapsPerSec == 0 {
			r.PlanBootstrapsPerSec = legacy.Plan
		}
	}
	return &r, nil
}

// CheckPlanParity compares a fresh report against a committed baseline:
// the Async and Planned throughputs must be within tol (e.g. 0.10 for
// ±10%) of the baseline, the bench-parity guard that keeps executor
// refactors honest. Only regressions fail — running faster than the
// baseline is not an error.
func CheckPlanParity(r, base *PlanBenchReport, tol float64) error {
	check := func(name string, got, want float64) error {
		if want <= 0 {
			return nil
		}
		if got < want*(1-tol) {
			return fmt.Errorf("experiments: %s %.1f/s regressed more than %.0f%% below baseline %.1f/s",
				name, got, tol*100, want)
		}
		return nil
	}
	if err := check("async", r.AsyncBootstrapsPerSec, base.AsyncBootstrapsPerSec); err != nil {
		return err
	}
	if err := check("plan", r.PlanBootstrapsPerSec, base.PlanBootstrapsPerSec); err != nil {
		return err
	}
	if err := check("batch", r.BatchBootstrapsPerSec, base.BatchBootstrapsPerSec); err != nil {
		return err
	}
	if err := check("shard", r.ShardBootstrapsPerSec, base.ShardBootstrapsPerSec); err != nil {
		return err
	}
	// The sharded data plane's hard invariant, checked on the fresh report
	// alone: a steady-state shard run must put strictly fewer bytes on the
	// wire than gate dispatch — O(cut edges) vs O(gates) ciphertexts.
	if r.GateWireBytesPerRun > 0 && r.ShardWireBytesPerRun >= r.GateWireBytesPerRun {
		return fmt.Errorf("experiments: shard run wire bytes %d not below gate dispatch %d",
			r.ShardWireBytesPerRun, r.GateWireBytesPerRun)
	}
	if r.LUT != nil {
		if base.LUT != nil {
			if err := check("lut-on", r.LUT.OnBootstrapsPerSec, base.LUT.OnBootstrapsPerSec); err != nil {
				return err
			}
		}
		// The LUT path's hard invariant, on the fresh report alone: the
		// acceptance criterion's ≥2× drop in bootstraps per logical gate.
		if r.LUT.BootstrapReduction < 2 {
			return fmt.Errorf("experiments: lut sweep bootstrap reduction %.2fx below the 2x floor",
				r.LUT.BootstrapReduction)
		}
	}
	return nil
}

// RenderPlanBench writes the human-readable form of the report.
func RenderPlanBench(w io.Writer, r *PlanBenchReport) {
	fprintf(w, "Plan capture/replay vs dynamic executors on %s (%d workers)\n", r.Netlist, r.Workers)
	fprintf(w, "  %12s %12s %10s\n", "async", "plan", "plan/async")
	fprintf(w, "  %9.1f/s %9.1f/s %9.2fx\n",
		r.AsyncBootstrapsPerSec, r.PlanBootstrapsPerSec, r.PlanSpeedup)
	fprintf(w, "  capture: %d logical bootstraps → %d executed over %d levels, %d arena slots, compiled in %.1fms\n",
		r.LogicalBootstraps, r.ExecBootstraps, r.Levels, r.ArenaSlots, r.CompileMs)
	fprintf(w, "  (throughput = logical bootstraps per second; deduplication counts as speedup)\n")
	if len(r.BatchSweep) > 0 {
		fprintf(w, "  batched kernel: single %.1f/s;", r.SingleBootstrapsPerSec)
		for _, pt := range r.BatchSweep {
			fprintf(w, " batch-%d %.1f/s", pt.Batch, pt.BootstrapsPerSec)
		}
		fprintf(w, " — %.2fx at batch 16\n", r.BatchSpeedup)
	}
	if len(r.ShardSweep) > 0 {
		fprintf(w, "  cluster (gate dispatch vs cached shard replay, per steady-state run):\n")
		for _, pt := range r.ShardSweep {
			fprintf(w, "    %d workers: gate %.1f/s %.1f KB on wire — shard %.1f/s %.1f KB on wire\n",
				pt.Workers, pt.GateBootstrapsPerSec, float64(pt.GateWireBytesPerRun)/1024,
				pt.ShardBootstrapsPerSec, float64(pt.ShardWireBytesPerRun)/1024)
		}
		fprintf(w, "  shard/gate-dispatch at 4 workers: %.2fx throughput, %.2fx wire bytes\n",
			r.ShardSpeedup, safeRatio(float64(r.ShardWireBytesPerRun), float64(r.GateWireBytesPerRun)))
	}
	if r.LUT != nil {
		RenderLUTSweep(w, r.LUT)
	}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
