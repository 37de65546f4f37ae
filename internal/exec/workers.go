package exec

import (
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
)

// Workers is a persistent per-worker gate.Engine set over one cloud key
// (engines are not safe to share between goroutines). Engines persist
// across runs — the in-process equivalent of the paper's long-lived Ray
// actors — so a Workers value is not safe for concurrent runs.
type Workers struct {
	ck      *boot.CloudKey
	engines []*gate.Engine
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

// Dim returns the LWE dimension of the key's parameter set.
func (w *Workers) Dim() int { return w.ck.Params.LWEDimension }
