// Package backend implements the in-process PyTFHE execution backends, one
// constructor each. Two run a netlist through a driver of internal/exec:
// Single (sequential, the reference every other executor is compared
// against) and Pool (Algorithm 1 of the paper: a BFS over the gate DAG
// that submits every ready gate of a level to a worker and barriers per
// level, the baseline of Fig. 10). Two run compiled plans: Shared, the
// multi-tenant slice scheduler behind pytfhed, and Planned, the
// capture/replay backend, which is Shared with one tenant and the
// multi-worker executor of `pytfhe run`.
// Plain is the keyless functional reference. Every gate, whichever
// executor schedules it, is evaluated by exec.Batcher. The distributed
// multi-node backend lives in internal/cluster; the GPU-simulator backend
// in internal/gpu.
package backend

import (
	"fmt"

	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
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

// lastRun is embedded by the executors that record metrics — Single, Pool
// and Planned. Stats holds those of the most recent Run.
type lastRun struct{ Stats RunStats }

// LastRun returns the metrics of the most recent Run.
func (l *lastRun) LastRun() RunStats { return l.Stats }

// Single evaluates gates sequentially on one core — the sequential driver.
type Single struct {
	eng *gate.Engine
	lastRun
}

// NewSingle returns a single-core backend over ck.
func NewSingle(ck *boot.CloudKey) *Single {
	return &Single{eng: gate.NewEngine(ck)}
}

// Name implements Backend.
func (s *Single) Name() string { return "single-cpu" }

// Engine exposes the underlying gate engine (for profiling).
func (s *Single) Engine() *gate.Engine { return s.eng }

// Run implements Backend.
func (s *Single) Run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	outs, stats, err := exec.RunSequential(s.eng, nl, inputs)
	if err != nil {
		return nil, err
	}
	s.Stats = stats
	return outs, nil
}

// Pool evaluates the DAG wavefront by wavefront with W worker goroutines,
// each owning a gate engine over the shared cloud key — the in-process
// equivalent of the paper's Ray actors, and the level driver of the
// execution core.
type Pool struct {
	ws *exec.Workers
	lastRun
}

// NewPool returns a backend with the given worker count (minimum 1).
func NewPool(ck *boot.CloudKey, workers int) *Pool {
	return &Pool{ws: exec.NewWorkers(ck, workers)}
}

// Name implements Backend.
func (p *Pool) Name() string { return fmt.Sprintf("pool-cpu(%d)", p.ws.N()) }

// Run implements Backend.
func (p *Pool) Run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	outs, stats, err := exec.RunLevels(p.ws, nl, inputs)
	if err != nil {
		return nil, err
	}
	p.Stats = stats
	return outs, nil
}

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
