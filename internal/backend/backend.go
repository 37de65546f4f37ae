// Package backend implements the in-process PyTFHE execution backends, one
// constructor each, and every keyed one runs a compiled plan. Single
// replays it with plan.Replay on the caller's goroutine, the sequential
// executor. Shared, the multi-tenant slice scheduler behind pytfhed, and
// Planned, which is Shared with one tenant and the multi-worker executor
// of `pytfhe run`, run plans as level slices; NewPool is Planned
// unbatched, Algorithm 1 of the paper on the plan's levels and the
// baseline of Fig. 10. Plain is the keyless functional reference. Every
// gate, whichever executor schedules it, is evaluated by plan.Interp
// through exec.Batcher. The distributed multi-node backend lives in
// internal/cluster; the GPU-simulator backend in internal/gpu.
//
//pytfhe:errorcritical
//pytfhe:execlayer
package backend

import (
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/plan"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// Backend executes a compiled gate netlist over LWE ciphertexts.
type Backend interface {
	// Name identifies the backend in reports.
	Name() string
	// Run evaluates the netlist: inputs[i] feeds primary input i+1. The
	// returned slice parallels nl.Outputs. Inputs are not modified.
	Run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error)
}

// RunStats captures execution metrics from the most recent Run.
type RunStats = exec.Stats

// ErrNilInput marks a nil ciphertext among a run's inputs.
var ErrNilInput = exec.ErrNilInput

// lastRun is embedded by the executors that record metrics, Single and
// Planned: Stats and PlanStats are those of the most recent Run.
type lastRun struct {
	Stats     RunStats
	PlanStats plan.Stats
}

// LastRun returns the metrics of the most recent Run.
func (l *lastRun) LastRun() RunStats { return l.Stats }

// LastPlan returns the capture summary of the most recent Run's plan.
func (l *lastRun) LastPlan() plan.Stats { return l.PlanStats }

// planRunStats is the part of a run's metrics that its plan fixes: the
// source netlist's logical counts, so BootstrapsPerSec is the program's
// effective throughput whatever deduplication removed, and the levels.
func planRunStats(ps plan.Stats, workers int) RunStats {
	return RunStats{
		Gates:      ps.LogicalGates,
		Bootstraps: ps.LogicalBootstraps,
		LUTs:       ps.LogicalLUTs,
		Levels:     ps.Levels,
		Workers:    workers,
	}
}

// Single is the sequential executor: every Run compiles the netlist into a
// plan and replays it with plan.Replay on one unbatched interpreter, on
// the caller's goroutine. The interpreter and the replay runtime persist
// across runs, so a Single serves one Run at a time.
type Single struct {
	it *plan.Interp
	rt *plan.Runtime
	lastRun
}

// NewSingle returns a single-core backend over ck.
func NewSingle(ck *boot.CloudKey) *Single {
	return &Single{it: plan.NewInterp(gate.NewEngine(ck), 1), rt: plan.NewRuntime(ck.Params.LWEDimension)}
}

// Name implements Backend.
func (s *Single) Name() string { return "single-cpu" }

// Run implements Backend.
func (s *Single) Run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	start := time.Now()
	compiled, err := plan.Compile(nl)
	if err != nil {
		return nil, err
	}
	outs, err := plan.Replay(compiled, s.it, inputs, s.rt)
	if err != nil {
		return nil, err
	}
	s.it.N = plan.Counts{} // the plan's stats already count what ran
	s.PlanStats = compiled.Stats()
	s.Stats = planRunStats(s.PlanStats, 1)
	s.Stats.Finish(start)
	return outs, nil
}

// NewPool returns the barriered wavefront executor of `pytfhe run -backend
// pool`: Planned with the given worker count (minimum 1), unbatched, so
// every worker evaluates one bootstrap at a time.
func NewPool(ck *boot.CloudKey, workers int) *Planned { return NewPlanned(ck, workers, 1) }

// EncryptInputs encrypts plaintext bits for a netlist run.
func EncryptInputs(sk *boot.SecretKey, bits []bool) []*lwe.Sample {
	rng := newEncryptionRNG()
	cts := make([]*lwe.Sample, len(bits))
	for i, b := range bits {
		ct := gate.NewCiphertext(sk.Params)
		gate.Encrypt(ct, b, sk, rng)
		cts[i] = ct
	}
	return cts
}

// DecryptOutputs decrypts backend outputs to plaintext bits.
func DecryptOutputs(sk *boot.SecretKey, cts []*lwe.Sample) []bool {
	bits := make([]bool, len(cts))
	for i, ct := range cts {
		bits[i] = gate.Decrypt(ct, sk)
	}
	return bits
}
