package exec

import (
	"sync/atomic"
	"time"

	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
)

// Workers is a persistent per-worker gate.Engine set over one cloud key
// (engines are not safe to share between goroutines), plus the cumulative
// busy-time accounting the drivers fold into Stats. Engines persist across
// runs — the in-process equivalent of the paper's long-lived Ray actors —
// so a Workers value is not safe for concurrent runs.
type Workers struct {
	ck      *boot.CloudKey
	engines []*gate.Engine
	busyNs  int64
}

// NewWorkers builds n engines (minimum 1) over ck.
func NewWorkers(ck *boot.CloudKey, n int) *Workers {
	if n < 1 {
		n = 1
	}
	engines := make([]*gate.Engine, n)
	for i := range engines {
		engines[i] = gate.NewEngine(ck)
	}
	return &Workers{ck: ck, engines: engines}
}

// N returns the worker count.
func (w *Workers) N() int { return len(w.engines) }

// Engine returns worker i's engine.
func (w *Workers) Engine(i int) *gate.Engine { return w.engines[i] }

// CloudKey returns the evaluation key the engines run under.
func (w *Workers) CloudKey() *boot.CloudKey { return w.ck }

// Dim returns the LWE dimension of the key's parameter set.
func (w *Workers) Dim() int { return w.ck.Params.LWEDimension }

// ResetBusy clears the cumulative busy counter at the start of a run.
func (w *Workers) ResetBusy() { atomic.StoreInt64(&w.busyNs, 0) }

// AddBusy folds one worker's evaluation time into the run total.
func (w *Workers) AddBusy(d time.Duration) { atomic.AddInt64(&w.busyNs, int64(d)) }

// Busy returns the cumulative evaluation time across workers since the
// last ResetBusy.
func (w *Workers) Busy() time.Duration { return time.Duration(atomic.LoadInt64(&w.busyNs)) }
