package exec

import "time"

// Stats captures execution metrics from the most recent run, populated
// uniformly by every backend. GatesPerSec counts all gates (free gates
// included); BootstrapsPerSec counts only bootstrapped evaluations — the
// figure of merit FHE papers report, and what an earlier revision
// mislabeled as GatesPerSec.
type Stats struct {
	Gates            int           // logical gates (including free gates)
	Bootstraps       int           // logical bootstrapped gates
	LUTs             int           // logical multi-input LUT gates (each one programmable bootstrap, included in Bootstraps)
	Levels           int           // wavefronts: the plan's levels
	Elapsed          time.Duration // wall-clock for the run
	GatesPerSec      float64       // Gates / Elapsed
	BootstrapsPerSec float64       // Bootstraps / Elapsed

	// Breakdowns of the run's workers: backend.Single records Workers
	// only; backend.Planned fills them all from its run's share of the
	// scheduler.
	Workers      int           // worker goroutines used
	QueueWait    time.Duration // cumulative time the run's level slices sat queued
	AvgQueueWait time.Duration // QueueWait / Gates
	WorkerBusy   time.Duration // cumulative time workers spent evaluating
	Utilization  float64       // WorkerBusy / (Elapsed * Workers)

	// Batch occupancy, recorded by backend.Planned at batch > 1 (zero
	// otherwise); the fill average is the amortization the kernel actually
	// saw.
	BatchSize         int     // configured batch limit (0 or 1 = unbatched)
	Batches           int     // batched bootstrap dispatches
	BatchedBootstraps int     // bootstrapped instructions covered by those dispatches
	AvgBatchFill      float64 // BatchedBootstraps / Batches
}

// Finish stamps the elapsed time since start and computes every derived
// rate from the counters accumulated so far.
func (s *Stats) Finish(start time.Time) {
	s.Elapsed = time.Since(start)
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.GatesPerSec = float64(s.Gates) / secs
		s.BootstrapsPerSec = float64(s.Bootstraps) / secs
	}
	if s.Gates > 0 {
		s.AvgQueueWait = s.QueueWait / time.Duration(s.Gates)
	}
	if s.Elapsed > 0 && s.Workers > 0 {
		s.Utilization = float64(s.WorkerBusy) / (float64(s.Elapsed) * float64(s.Workers))
	}
	if s.Batches > 0 {
		s.AvgBatchFill = float64(s.BatchedBootstraps) / float64(s.Batches)
	}
}
