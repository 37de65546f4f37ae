package experiments

import (
	"fmt"
	"io"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/plan"
	"pytfhe/internal/sched"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
)

// ExecutorRow is one worker count of the measured CPU-scaling experiment:
// the unbatched Planned (the multi-worker backend of `pytfhe run`, whose
// pool form it is) replays the netlist's deduplicated plan over real
// ciphertexts, side by side with its speedup over Single's sequential
// replay of the same plan and the makespan sched.SimulateLevels — the
// level-synchronous model it follows — predicts for that plan at that
// worker count.
type ExecutorRow struct {
	Workers   int
	Planned   backend.RunStats
	Speedup   float64       // Single's Elapsed / Planned.Elapsed
	Predicted time.Duration // SimulateLevels makespan at the calibrated gate time
}

// ExecutorScaling measures Fig. 10-style CPU scaling on the real executors
// rather than the schedule simulator: unlike Fig10DistributedCPU, every
// number here is wall clock over actual bootstrapped gates. Every executor
// runs the compiled plan, so the baseline is Algorithm 1 after exact
// functional deduplication, not over the raw netlist. The single-core gate
// cost is calibrated from a warm Single run of the same netlist — its
// replay time, compile time excluded, over the bootstraps its plan
// executes — and the Predicted column simulates that plan's levels at
// that cost, so it models exactly the work the executors do.
func ExecutorScaling(ck *boot.CloudKey, nl *circuit.Netlist, inputs []*lwe.Sample, workerCounts []int) ([]ExecutorRow, error) {
	compiled, err := plan.Compile(nl)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	work := make([]sched.Level, len(compiled.Levels()))
	for i, lv := range compiled.Levels() {
		for _, ins := range lv {
			if ins.NeedsBootstrap() {
				work[i].Bootstraps++
			} else {
				work[i].Free++
			}
		}
	}

	// Every executor runs the netlist once untimed before its timed run,
	// so neither side of a speedup pays a cold engine, runtime or cache.
	calib := backend.NewSingle(ck)
	for range 2 {
		if _, err := calib.Run(nl, inputs); err != nil {
			return nil, fmt.Errorf("experiments: calibration run: %w", err)
		}
	}
	gt := DefaultGateTime
	if b := calib.PlanStats.ExecBootstraps; b > 0 {
		gt = (calib.Stats.Elapsed - calib.PlanStats.CompileTime) / time.Duration(b)
	}

	rows := make([]ExecutorRow, 0, len(workerCounts))
	for _, w := range workerCounts {
		// Unbatched: Fig. 10 compares schedulers, not kernels.
		planned := backend.NewPool(ck, w)
		_, err := planned.Run(nl, inputs)
		if err == nil {
			_, err = planned.Run(nl, inputs)
		}
		planned.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: plan(%d): %w", w, err)
		}
		row := ExecutorRow{
			Workers:   w,
			Planned:   planned.Stats,
			Predicted: sched.SimulateLevels(work, sched.LocalPool(w, gt)).Makespan,
		}
		if planned.Stats.Elapsed > 0 {
			row.Speedup = float64(calib.Stats.Elapsed) / float64(planned.Stats.Elapsed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderExecutorScaling writes the measured executor scaling.
func RenderExecutorScaling(w io.Writer, name string, rows []ExecutorRow) {
	fprintf(w, "Measured CPU scaling on %s — unbatched plan replay against one worker\n", name)
	fprintf(w, "  %7s %12s %10s %8s %12s %12s\n",
		"workers", "plan", "speedup", "util", "queue-wait", "predicted")
	for _, r := range rows {
		fprintf(w, "  %7d %12v %9.2fx %7.0f%% %12v %12v\n",
			r.Workers,
			r.Planned.Elapsed.Round(time.Millisecond),
			r.Speedup,
			100*r.Planned.Utilization,
			r.Planned.AvgQueueWait.Round(time.Microsecond),
			r.Predicted.Round(time.Millisecond))
	}
	fprintf(w, "  (every executor replays the deduplicated plan, so the Algorithm 1 baseline includes deduplication;\n")
	fprintf(w, "   speedup is over Single's sequential replay; predicted = sched.SimulateLevels of the plan's levels at one executed bootstrap's cost)\n")
}
