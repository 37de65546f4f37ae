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
// the barriered wavefront Pool and the plan executor (Planned, the
// multi-worker backend of `pytfhe run`) run the same netlist over real
// ciphertexts, side by side with the makespan sched.Simulate — the
// level-synchronous model both of them follow — predicts for that worker
// count.
type ExecutorRow struct {
	Workers     int
	Pool        backend.RunStats
	Planned     backend.RunStats
	PlanSpeedup float64       // Pool.Elapsed / Planned.Elapsed
	Predicted   time.Duration // Simulate makespan at the calibrated gate time
}

// ExecutorScaling measures Fig. 10-style CPU scaling on the real executors
// rather than the schedule simulator: unlike Fig10DistributedCPU, every
// number here is wall clock over actual bootstrapped gates. The single-core
// gate cost is calibrated from a Single run of the same netlist, so the
// Predicted column makes the simulator's claims checkable against the
// measurement in the same table.
func ExecutorScaling(ck *boot.CloudKey, nl *circuit.Netlist, inputs []*lwe.Sample, workerCounts []int) ([]ExecutorRow, error) {
	calib := backend.NewSingle(ck)
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
		planned := backend.NewPlanned(ck, w, 1)
		_, err := planned.Run(nl, inputs)
		planned.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: plan(%d): %w", w, err)
		}
		row := ExecutorRow{
			Workers:   w,
			Pool:      pool.Stats,
			Planned:   planned.Stats,
			Predicted: sched.Simulate(nl, sched.LocalPool(w, gt)).Makespan,
		}
		if planned.Stats.Elapsed > 0 {
			row.PlanSpeedup = float64(pool.Stats.Elapsed) / float64(planned.Stats.Elapsed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderExecutorScaling writes the measured executor comparison.
func RenderExecutorScaling(w io.Writer, name string, rows []ExecutorRow) {
	fprintf(w, "Measured CPU scaling on %s — barriered Pool vs plan replay\n", name)
	fprintf(w, "  %7s %12s %12s %10s %8s %12s %12s\n",
		"workers", "pool", "plan", "plan/pool", "util", "queue-wait", "predicted")
	for _, r := range rows {
		fprintf(w, "  %7d %12v %12v %9.2fx %7.0f%% %12v %12v\n",
			r.Workers,
			r.Pool.Elapsed.Round(time.Millisecond),
			r.Planned.Elapsed.Round(time.Millisecond),
			r.PlanSpeedup,
			100*r.Planned.Utilization,
			r.Planned.AvgQueueWait.Round(time.Microsecond),
			r.Predicted.Round(time.Millisecond))
	}
	fprintf(w, "  (plan replays Algorithm 1's levels as deduplicated slices; predicted = sched.Simulate)\n")
}
