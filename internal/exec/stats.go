package exec

import "time"

// Stats captures execution metrics from the most recent run, populated
// uniformly by every driver. GatesPerSec counts all gates (free gates
// included); BootstrapsPerSec counts only bootstrapped evaluations — the
// figure of merit FHE papers report, and what an earlier revision
// mislabeled as GatesPerSec.
type Stats struct {
	Gates            int           // gates evaluated (including free gates)
	Bootstraps       int           // bootstrapped gate evaluations
	LUTs             int           // multi-input LUT evaluations (each one programmable bootstrap, included in Bootstraps)
	Levels           int           // wavefronts executed (0 for ready-driven drivers)
	Elapsed          time.Duration // wall-clock for the run
	GatesPerSec      float64       // Gates / Elapsed
	BootstrapsPerSec float64       // Bootstraps / Elapsed

	// Breakdowns recorded by the concurrent drivers (the level driver
	// leaves them zero except Workers; the ready driver fills them all).
	Workers      int           // worker goroutines used
	QueueWait    time.Duration // cumulative time gates sat in the ready queue
	AvgQueueWait time.Duration // QueueWait / Gates
	WorkerBusy   time.Duration // cumulative time workers spent evaluating
	Utilization  float64       // WorkerBusy / (Elapsed * Workers)

	// Batch occupancy, recorded by the ready driver at batch > 1 (zero
	// otherwise) and by backend.Planned from its scheduler (full/drain
	// flushes excepted). A ready-driver dispatch flushes
	// "full" when it collected the configured batch size and "drain" when
	// the ready queue ran dry first; the fill average is the amortization
	// the kernel actually saw.
	BatchSize         int     // configured batch limit (0 or 1 = unbatched)
	Batches           int     // batched bootstrap dispatches
	BatchedBootstraps int     // bootstrapped gates covered by those dispatches
	BatchFullFlushes  int     // dispatches that filled to BatchSize
	BatchDrainFlushes int     // dispatches flushed early on an empty queue
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
