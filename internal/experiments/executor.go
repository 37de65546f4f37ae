package experiments

import (
	"fmt"
	"io"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/sched"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
)

// ExecutorRow is one worker count of the measured CPU-scaling experiment:
// the barriered wavefront Pool and the barrier-free Async executor run the
// same netlist over real ciphertexts, side by side with the makespan
// sched.SimulateAsync predicts for that worker count.
type ExecutorRow struct {
	Workers      int
	Pool         backend.RunStats
	Async        backend.RunStats
	AsyncSpeedup float64       // Pool.Elapsed / Async.Elapsed
	Predicted    time.Duration // SimulateAsync makespan at the calibrated gate time
}

// ExecutorScaling measures Fig. 10-style CPU scaling on the real executors
// rather than the schedule simulator: unlike Fig10DistributedCPU, every
// number here is wall clock over actual bootstrapped gates. The single-core
// gate cost is calibrated from a 1-worker Async run of the same netlist, so
// the Predicted column makes the simulator's claims checkable against the
// measurement in the same table.
func ExecutorScaling(ck *boot.CloudKey, nl *circuit.Netlist, inputs []*lwe.Sample, workerCounts []int) ([]ExecutorRow, error) {
	calib := backend.NewAsync(ck, 1, 1)
	if _, err := calib.Run(nl, inputs); err != nil {
		return nil, fmt.Errorf("experiments: calibration run: %w", err)
	}
	gt := DefaultGateTime
	if b := calib.Stats.Bootstraps; b > 0 {
		gt = calib.Stats.Elapsed / time.Duration(b)
	}

	rows := make([]ExecutorRow, 0, len(workerCounts))
	for _, w := range workerCounts {
		pool := backend.NewPool(ck, w)
		if _, err := pool.Run(nl, inputs); err != nil {
			return nil, fmt.Errorf("experiments: pool(%d): %w", w, err)
		}
		async := backend.NewAsync(ck, w, 1)
		if _, err := async.Run(nl, inputs); err != nil {
			return nil, fmt.Errorf("experiments: async(%d): %w", w, err)
		}
		row := ExecutorRow{
			Workers:   w,
			Pool:      pool.Stats,
			Async:     async.Stats,
			Predicted: sched.SimulateAsync(nl, sched.LocalPool(w, gt)).Makespan,
		}
		if async.Stats.Elapsed > 0 {
			row.AsyncSpeedup = float64(pool.Stats.Elapsed) / float64(async.Stats.Elapsed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderExecutorScaling writes the measured executor comparison.
func RenderExecutorScaling(w io.Writer, name string, rows []ExecutorRow) {
	fprintf(w, "Measured CPU scaling on %s — barriered Pool vs dependency-driven Async\n", name)
	fprintf(w, "  %7s %12s %12s %10s %8s %12s %12s\n",
		"workers", "pool", "async", "async/pool", "util", "queue-wait", "predicted")
	for _, r := range rows {
		fprintf(w, "  %7d %12v %12v %9.2fx %7.0f%% %12v %12v\n",
			r.Workers,
			r.Pool.Elapsed.Round(time.Millisecond),
			r.Async.Elapsed.Round(time.Millisecond),
			r.AsyncSpeedup,
			100*r.Async.Utilization,
			r.Async.AvgQueueWait.Round(time.Microsecond),
			r.Predicted.Round(time.Millisecond))
	}
	fprintf(w, "  (async removes the per-level barrier of Algorithm 1; predicted = sched.SimulateAsync)\n")
}
