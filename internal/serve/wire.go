// Package serve implements pytfhed, the persistent multi-tenant FHE
// evaluation daemon: a gob-framed TCP protocol (the wire style of
// internal/cluster) over a program registry, per-session cloud keys, a
// bounded admission queue, and one shared backend executor. Where the CLI
// pays key distribution and program compilation per invocation, the daemon
// pays them once per session and once per program hash — the serving-layer
// analogue of the paper amortizing CUDA-Graph construction across batches
// and cloud-key broadcast across wavefronts (PAPER.md §IV).
package serve

import (
	"errors"
	"fmt"

	"pytfhe/internal/qos"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
)

// Typed request failures. The wire carries a stable code for each; the
// client rehydrates them so callers can classify with errors.Is.
var (
	// ErrOverloaded: the bounded admission queue is full. Back off and
	// retry; the server sheds load instead of queueing without bound.
	ErrOverloaded = errors.New("serve: server overloaded")
	// ErrUnknownProgram: the program hash was never registered (or the
	// registry was restarted). Re-register the binary.
	ErrUnknownProgram = errors.New("serve: unknown program")
	// ErrNoSession: Evaluate before OpenSession on this connection.
	ErrNoSession = errors.New("serve: no session key registered")
	// ErrTimeout: the request exceeded its evaluation deadline (queue wait
	// included).
	ErrTimeout = errors.New("serve: evaluation timed out")
	// ErrDraining: the server is shutting down and admits no new work.
	ErrDraining = errors.New("serve: server draining")
	// ErrRejected: the program failed admission linting.
	ErrRejected = errors.New("serve: program rejected")
	// ErrQuotaExceeded aliases qos.ErrQuotaExceeded: the session's tenant
	// is over its per-tenant in-flight or gate budget. Unlike
	// ErrOverloaded this is not a server-wide condition — other tenants
	// are unaffected, and the request should be retried after the
	// tenant's own work drains.
	ErrQuotaExceeded = qos.ErrQuotaExceeded
)

// Request is the single client→server envelope; exactly one field is set.
type Request struct {
	Register *RegisterProgram
	Open     *OpenSession
	Eval     *EvalRequest
	Stats    *StatsRequest
	Bye      bool
}

// RegisterProgram uploads an assembled PyTFHE binary. The server decodes
// it with core.Load (one pass that rejects every binary asm.Lint
// rejects), checks its noise budget, compiles its execution plan once,
// and keeps both under its content hash; re-registering an
// already-registered binary compiles nothing.
type RegisterProgram struct {
	Binary []byte
}

// OpenSession registers the client's cloud evaluation key for this
// connection. The ~MB key upload is paid once here; every subsequent
// Evaluate on the connection reuses it.
type OpenSession struct {
	Key *boot.CloudKey
}

// EvalRequest submits one encrypted evaluation of a registered program.
type EvalRequest struct {
	ProgramHash string
	Inputs      []*lwe.Sample
	// TimeoutMs overrides the server's default per-request timeout when
	// positive.
	TimeoutMs int64
}

// StatsRequest asks for a server statistics snapshot.
type StatsRequest struct{}

// Response is the single server→client envelope; Err is set on failure,
// otherwise exactly one result field is.
type Response struct {
	Program *ProgramInfo
	Session *SessionInfo
	Eval    *EvalResult
	Stats   *StatsReply
	Err     *WireError
}

// ProgramInfo describes a registered program.
type ProgramInfo struct {
	Hash   string // hex SHA-256 of the binary
	Name   string
	Cached bool // true when the hash was already in the registry
	Inputs, Gates, Bootstrapped, Outputs,
	Depth int
	// LUTs counts the program's multi-input LUT gates — non-zero when the
	// uploaded binary carries LUT records (`pytfhe compile -lut`,
	// core.CompileLUT).
	LUTs int
	// Noise is the static noise-budget summary computed at registration
	// (zero Checked when the server was configured with the check off).
	// A program that fails the analysis is never admitted, so a non-zero
	// Noise always describes a passing report.
	Noise ProgramNoise
}

// ProgramNoise summarizes a program's registration-time static noise
// analysis (internal/tfhe/noise) for the wire.
type ProgramNoise struct {
	Checked      bool    // analysis ran at registration
	Params       string  // parameter set the analysis used
	HeadroomBits float64 // log2 margin over the sigma floor (+Inf: no noisy wires)
	WorstSigmas  float64 // sigma margin of the worst gate or output
	FailureProb  float64 // union bound on any decryption error per evaluation
}

// SessionInfo acknowledges an opened session.
type SessionInfo struct {
	ID        uint64
	KeyShared bool // true when an identical cloud key was already registered
}

// EvalResult carries the output ciphertexts of one evaluation.
type EvalResult struct {
	Outputs   []*lwe.Sample
	ElapsedMs int64
}

// StatsReply is the Stats RPC payload.
type StatsReply struct {
	QueueDepth  int // admission queue occupancy (waiting, not running)
	InFlight    int // evaluations currently executing
	Sessions    uint64
	Programs    int
	Evaluations int64 // completed evaluations
	Rejected    int64 // ErrOverloaded rejections
	// QuotaRejected counts requests refused by per-tenant quotas
	// (qos.ErrQuotaExceeded) — tenant-local, unlike Rejected.
	QuotaRejected int64
	// KeysReleased counts cloud keys whose executor engines were released
	// because their last session closed.
	KeysReleased int64
	// TenantPicks/TenantQueued report the fair scheduler's per-tenant
	// service counts and current queue depths, in level slices (at most
	// one kernel batch of plan instructions each), keyed by the tenant
	// label (cloud-key hash prefix). Every locally served evaluation is
	// scheduled through that queue.
	TenantPicks  map[string]int64
	TenantQueued map[string]int
	// GatesPerSec is the executor's executed-instruction throughput, free
	// gates included; BootstrapsPerSec counts only bootstrapped ones (the
	// figure earlier releases mislabeled GatesPerSec). Both are after plan
	// deduplication: what the kernel ran, not the programs' logical gates.
	GatesPerSec      float64
	BootstrapsPerSec float64
	UptimeMs         int64
	PerProgram       map[string]int64 // hash → evaluation count
	// Workers is the shared executor's worker count; WorkerBusyMs their
	// cumulative evaluation time.
	Workers            int
	WorkerBusyMs       int64
	ExecutorGates      int64 // plan instructions the shared executor ran
	ExecutorBootstraps int64 // bootstrapped ones among them
	// ExecutorLUTs counts multi-input LUT instructions the shared executor
	// ran (each one programmable bootstrap, included in its bootstrap
	// count); LUTsEvaluated counts logical LUT gates across every
	// completed evaluation regardless of path — local replay or cluster
	// dispatch. Both stay zero while the daemon serves only classic
	// binaries.
	ExecutorLUTs  int64
	LUTsEvaluated int64

	// Plan counters. Registration compiles a program's execution plan, so
	// PlanMisses counts compiles — one per newly registered program — and
	// PlanHits counts evaluations served from a registered plan; no
	// evaluation compiles. PlanReplays counts evaluations replayed on the
	// local executor — every evaluation the worker pool did not take.
	// PlanFallbacks is always 0: there is no other local path. The field
	// stays on the wire because deployed clients read it.
	PlanHits      int64
	PlanMisses    int64
	PlanReplays   int64
	PlanFallbacks int64
	// ArenaHighWater is the most ciphertexts any one replay's arena has
	// held.
	ArenaHighWater int
	// PerProgramLatency maps program hash → evaluation latency quantiles
	// over a sliding window of recent requests.
	PerProgramLatency map[string]LatencyStats
	// ProgramNoise maps program hash → the static noise-budget summary
	// recorded at registration.
	ProgramNoise map[string]ProgramNoise

	// Batch occupancy on the shared executor: how many amortized kernel
	// dispatches ran, how many bootstrapped instructions they covered —
	// every executed one, batches of one included — and how many
	// dispatches spanned ≥2 concurrent requests of one tenant.
	// AvgBatchFill is BatchedBootstraps/Batches — the amortization the
	// kernel actually saw.
	BatchSize         int
	Batches           int64
	BatchedBootstraps int64
	CrossRunBatches   int64
	AvgBatchFill      float64

	// Cluster reports the worker-pool coordinator's counters; nil when the
	// daemon runs without -cluster-listen.
	Cluster *ClusterStats
}

// ClusterStats is the daemon's view of its cluster coordinator: how many
// evaluations the worker pool served (vs fell back to local execution),
// the shard-cache economics, and the measured wire traffic.
type ClusterStats struct {
	Workers   int   // workers currently joined
	Evals     int64 // evaluations dispatched as plan shards
	Fallbacks int64 // cluster-eligible evaluations that ran locally
	// Shard shipping: a ShardRun replays cached shards; hits found the
	// shard resident on its worker, misses paid the one-time shipment,
	// reships were installed by a rerun on the survivors after a loss.
	ShardRuns    int64
	ShardHits    int64
	ShardMisses  int64
	ShardReships int64
	// Measured coordinator-side traffic (all runs), plus the portion that
	// was per-run boundary ciphertexts.
	WireBytesSent int64
	WireBytesRecv int64
	BoundaryBytes int64
	WorkersLost   int64
}

// LatencyStats summarizes recent evaluation latencies of one program.
type LatencyStats struct {
	Samples int // window occupancy (≤ latencyWindow)
	P50Ms   float64
	P95Ms   float64
}

// WireError is the serialized form of a typed failure.
type WireError struct {
	Code string
	Msg  string
}

// Stable wire codes for the typed errors.
const (
	codeOverloaded     = "overloaded"
	codeUnknownProgram = "unknown-program"
	codeNoSession      = "no-session"
	codeTimeout        = "timeout"
	codeDraining       = "draining"
	codeRejected       = "rejected"
	codeQuota          = "quota"
	codeInternal       = "internal"
)

var errCodes = map[string]error{
	codeOverloaded:     ErrOverloaded,
	codeUnknownProgram: ErrUnknownProgram,
	codeNoSession:      ErrNoSession,
	codeTimeout:        ErrTimeout,
	codeDraining:       ErrDraining,
	codeRejected:       ErrRejected,
	codeQuota:          ErrQuotaExceeded,
}

// toWire converts a server-side error to its wire form.
func toWire(err error) *WireError {
	for code, sentinel := range errCodes {
		if errors.Is(err, sentinel) {
			return &WireError{Code: code, Msg: err.Error()}
		}
	}
	return &WireError{Code: codeInternal, Msg: err.Error()}
}

// Err rehydrates a wire error into one that matches the package sentinels
// under errors.Is.
func (w *WireError) Err() error {
	if sentinel, ok := errCodes[w.Code]; ok {
		if w.Msg == sentinel.Error() {
			return sentinel
		}
		return fmt.Errorf("%w: %s", sentinel, w.Msg)
	}
	return fmt.Errorf("serve: server error: %s", w.Msg)
}
