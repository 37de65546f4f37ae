package serve

import (
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/cluster"
	"pytfhe/internal/core"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/qos"
	"pytfhe/internal/telemetry"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/noise"
	"pytfhe/internal/wire"
)

// Config tunes the daemon. Zero values take the documented defaults.
type Config struct {
	// Workers is the shared executor's worker-goroutine count
	// (default runtime.NumCPU()).
	Workers int
	// MaxConcurrent caps evaluations running on the executor at once
	// (default 2×Workers). Requests past it wait in the admission queue.
	MaxConcurrent int
	// QueueCap bounds the admission queue: a request arriving when
	// MaxConcurrent evaluations run and QueueCap more wait is rejected
	// with ErrOverloaded instead of queueing without bound (default 64).
	QueueCap int
	// DefaultTimeout bounds each evaluation, queue wait included
	// (default 5m; ≤0 keeps the default). EvalRequest.TimeoutMs overrides
	// it per request.
	DefaultTimeout time.Duration
	// Batch is the bootstrap batch size: each executor worker groups up to
	// Batch bootstrapped plan instructions — across concurrent requests
	// under the same key — into one amortized blind-rotation kernel call.
	// It is also the scheduling grain: a tenant holds a worker for at most
	// one batch before the fair queue picks again (default 16; set 1 to
	// disable batching).
	Batch int
	// NoiseParams selects the parameter set the registration-time static
	// noise-budget analysis (internal/tfhe/noise) runs against (default
	// params.Default128()). A program whose worst-case pre-bootstrap or
	// output noise falls under NoiseMinSigmas standard deviations of
	// margin is rejected with ErrRejected before any ciphertext is ever
	// submitted against it.
	NoiseParams *params.GateParams
	// NoiseMinSigmas is the sigma floor of the admission noise check
	// (default noise.DefaultMinSigmas).
	NoiseMinSigmas float64
	// DisableNoiseCheck admits programs without the static noise analysis.
	DisableNoiseCheck bool

	// ClusterListen, when non-empty, runs a cluster coordinator on this
	// address. pytfhe-worker processes join it at any time (late joiners
	// included); eligible evaluations are then dispatched as cached plan
	// shards across the pool, with only boundary ciphertexts on the wire.
	// The coordinator binds to the first session's cloud key — sessions
	// opened under a different key evaluate locally (documented limitation:
	// the worker pool holds one broadcast key at a time).
	ClusterListen string
	// ClusterWorkers is how many workers the first cluster-eligible
	// evaluation waits for before giving up on the pool (default 2).
	ClusterWorkers int
	// ClusterJoinWait bounds that first-evaluation wait (default 30s). If
	// the workers never arrive the failure is sticky and every evaluation
	// falls back to the local executor.
	ClusterJoinWait time.Duration

	// MetricsAddr, when non-empty, serves a Prometheus-text /metrics
	// endpoint on this address (port 0 picks a free port; see
	// Server.MetricsAddr for the bound address).
	MetricsAddr string
	// TenantMaxInFlight caps one tenant's concurrently admitted
	// evaluations; past it requests fail fast with qos.ErrQuotaExceeded
	// instead of consuming queue slots (0: unlimited). A tenant is a
	// cloud key (by content hash), not a connection.
	TenantMaxInFlight int
	// TenantMaxQueuedGates caps the total gate count of one tenant's
	// admitted evaluations (0: unlimited).
	TenantMaxQueuedGates int
	// TenantWeights maps a cloud-key hash prefix (hex) to a fair-share
	// scheduling weight. A session's key gets the weight of the longest
	// prefix its hash matches on the shared executor; a key matching none
	// gets 1.
	TenantWeights map[string]float64
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 2 * c.Workers
	}
	if c.QueueCap < 1 {
		c.QueueCap = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.Batch < 1 {
		c.Batch = backend.DefaultBatch
	}
	if c.NoiseParams == nil {
		c.NoiseParams = params.Default128()
	}
	if c.NoiseMinSigmas <= 0 {
		c.NoiseMinSigmas = noise.DefaultMinSigmas
	}
	if c.ClusterWorkers < 1 {
		c.ClusterWorkers = 2
	}
	if c.ClusterJoinWait <= 0 {
		c.ClusterJoinWait = 30 * time.Second
	}
	return c
}

// latencyWindow is the per-program sliding window the latency quantiles
// are computed over.
const latencyWindow = 128

// programEntry is one registry slot: the program, the execution plan
// registration compiled for it, its evaluation hit count, and a latency
// window. An entry lives as long as the daemon, like the netlist and
// binary it already keeps.
type programEntry struct {
	prog  *core.Program
	plan  *plan.Plan
	noise ProgramNoise // registration-time static noise summary
	hits  int64        // atomic

	latMu sync.Mutex
	lat   [latencyWindow]float64 // recent latencies, ms
	latN  int64                  // total recorded (ring position = latN % window)
}

// recordLatency appends one evaluation latency to the sliding window.
func (e *programEntry) recordLatency(ms float64) {
	e.latMu.Lock()
	e.lat[e.latN%latencyWindow] = ms
	e.latN++
	e.latMu.Unlock()
}

// latencyStats computes the window quantiles (zero Samples when no
// evaluation has completed yet).
func (e *programEntry) latencyStats() LatencyStats {
	e.latMu.Lock()
	n := int(e.latN)
	if n > latencyWindow {
		n = latencyWindow
	}
	window := make([]float64, n)
	copy(window, e.lat[:n])
	e.latMu.Unlock()
	if n == 0 {
		return LatencyStats{}
	}
	sort.Float64s(window)
	return LatencyStats{
		Samples: n,
		P50Ms:   window[(n-1)*50/100],
		P95Ms:   window[(n-1)*95/100],
	}
}

// session is the per-connection evaluation context established by
// OpenSession: the shared-executor key handle and the key's content hash
// (the tenant identity: quota key, metric label, and the match against
// the cluster coordinator's bound key).
type session struct {
	handle  *backend.SharedKey
	keyHash string
}

// Server is the pytfhed daemon: program registry, session key cache,
// bounded admission queue, and the shared executor every request runs on.
type Server struct {
	cfg   Config
	exec  *backend.Shared
	ln    net.Listener
	start time.Time

	mu       sync.Mutex
	programs map[string]*programEntry
	keys     map[string]*backend.SharedKey // cloud-key hash → handle
	sessRefs map[string]int                // cloud-key hash → open sessions
	conns    map[net.Conn]struct{}

	quota *qos.Quota[string] // per-tenant admission quotas (nil: unlimited)

	reg        *telemetry.Registry
	met        *metrics
	metricsLn  net.Listener
	metricsSrv *http.Server

	slots    chan struct{} // MaxConcurrent evaluation slots
	queued   int32         // atomic: admitted requests (waiting + running)
	inflight int32         // atomic: requests holding an evaluation slot
	sessions uint64        // atomic: sessions opened since start
	evals    int64         // atomic: completed evaluations
	lutEvals int64         // atomic: logical LUT gates across completed evaluations
	rejected int64         // atomic: ErrOverloaded rejections
	quotaRej int64         // atomic: qos.ErrQuotaExceeded rejections
	draining int32         // atomic bool

	// Cluster dispatch (nil coord: disabled). The coordinator accepts
	// worker joins in the background from Start on; clusterRun serializes
	// sharded runs (one at a time — contended requests evaluate locally).
	coord      *cluster.Coordinator
	clusterRun sync.Mutex
	cmu        sync.Mutex // guards the three fields below
	clusterKey string     // cloud-key hash the pool is bound to ("" until first session)
	clusterUp  bool       // ClusterWorkers joined at least once
	clusterErr error      // sticky bind/join failure: local fallback forever

	clusterEvals     int64 // atomic: evaluations served by the worker pool
	clusterFallbacks int64 // atomic: cluster-eligible evals that ran locally

	planMisses  int64 // atomic: plans compiled, one per registered program
	planReplays int64 // atomic: evals replayed from their registered plan

	kickCh chan struct{}  // closed on forced shutdown to unblock slot waiters
	connWG sync.WaitGroup // connection handler goroutines
	evalWG sync.WaitGroup // evaluations in flight (response write included)

	// beforeEval, when a test sets it before Start, runs at the start of
	// every admitted evaluation, while it holds its evaluation slot.
	beforeEval func()
}

// New builds a server; call Start to begin listening.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		exec:     backend.NewShared(cfg.Workers, cfg.Batch),
		start:    time.Now(),
		programs: make(map[string]*programEntry),
		keys:     make(map[string]*backend.SharedKey),
		sessRefs: make(map[string]int),
		conns:    make(map[net.Conn]struct{}),
		quota:    qos.NewQuota[string](cfg.TenantMaxInFlight, cfg.TenantMaxQueuedGates),
		reg:      telemetry.NewRegistry(),
		slots:    make(chan struct{}, cfg.MaxConcurrent),
		kickCh:   make(chan struct{}),
	}
	s.met = newMetrics(s.reg, s.statsSnapshot)
	return s
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves connections in the
// background until Drain or Close. With Config.ClusterListen set it also
// brings up the cluster coordinator and starts accepting worker joins; the
// key broadcast happens when the first session binds the pool.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.ln = ln
	if s.cfg.ClusterListen != "" {
		coord, err := cluster.NewPendingCoordinator(s.cfg.ClusterListen)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: cluster listen: %w", err)
		}
		s.coord = coord
		go coord.ServeJoins()
	}
	if s.cfg.MetricsAddr != "" {
		mln, err := net.Listen("tcp", s.cfg.MetricsAddr)
		if err != nil {
			ln.Close()
			if s.coord != nil {
				_ = s.coord.Close()
			}
			return fmt.Errorf("serve: metrics listen: %w", err)
		}
		s.metricsLn = mln
		mux := http.NewServeMux()
		mux.Handle("/metrics", s.reg.Handler())
		s.metricsSrv = &http.Server{Handler: mux}
		go s.metricsSrv.Serve(mln)
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	return nil
}

// MetricsAddr returns the bound /metrics listen address, or "" when the
// endpoint is disabled.
func (s *Server) MetricsAddr() string {
	if s.metricsLn == nil {
		return ""
	}
	return s.metricsLn.Addr().String()
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ClusterAddr returns the coordinator's worker-join address, or "" when
// clustering is disabled.
func (s *Server) ClusterAddr() string {
	if s.coord == nil {
		return ""
	}
	return s.coord.Addr()
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain or shutdown
		}
		s.mu.Lock()
		if atomic.LoadInt32(&s.draining) != 0 {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// handleConn serves one client connection: requests are processed in
// order, one session key per connection.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer s.dropConn(conn)
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	var sess *session
	defer func() {
		if sess != nil {
			s.closeSession(sess.keyHash)
		}
	}()
	uploaded := false // the previous request registered a cloud key
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // connection closed or broken framing
		}
		if uploaded {
			// A key upload is the daemon's one large transient allocation:
			// the gob frame dec held until this Decode replaced it, plus
			// the decode and hashing garbage, together about twice the key.
			// Collect it now, so the heap goal that paces every later
			// collection is set by the keys the daemon keeps rather than by
			// the upload that carried them. Only an accepted key counts, so
			// a client cannot force collections with refused uploads.
			uploaded = false
			runtime.GC()
		}
		var resp Response
		evalStarted := false
		switch {
		case req.Bye:
			return
		case req.Register != nil:
			resp = s.handleRegister(req.Register)
		case req.Open != nil:
			resp = s.handleOpen(req.Open, &sess)
			uploaded = resp.Err == nil
		case req.Eval != nil:
			// The evalWG entry covers the response write too, so Drain
			// never closes a connection under a result in transit.
			if s.beginEval() {
				evalStarted = true
				resp = s.handleEval(sess, req.Eval)
			} else {
				resp = Response{Err: toWire(ErrDraining)}
			}
		case req.Stats != nil:
			resp = s.handleStats()
		default:
			resp = Response{Err: &WireError{Code: codeInternal, Msg: "empty request envelope"}}
		}
		err := enc.Encode(resp)
		if evalStarted {
			s.evalWG.Done()
		}
		if err != nil {
			return
		}
	}
}

// beginEval claims an evalWG entry unless the server is draining. The
// re-check after Add closes the race with Drain's flag flip.
func (s *Server) beginEval() bool {
	if atomic.LoadInt32(&s.draining) != 0 {
		return false
	}
	s.evalWG.Add(1)
	if atomic.LoadInt32(&s.draining) != 0 {
		s.evalWG.Done()
		return false
	}
	return true
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// handleRegister admits a program binary into the registry exactly as
// compiled: one decode (core.Load, which rejects every binary asm.Lint
// rejects), static noise-budget analysis, and the plan compile, all kept
// under the content hash — every evaluation then replays that plan, on
// the local executor or the worker pool, and none compiles. LUT records
// come from the compiler (core.CompileLUT, `pytfhe compile -lut`).
// Malformed or cyclic netlists — and
// netlists whose worst-case noise cannot keep the configured sigma margin
// under the server's parameter set — are rejected here, before any
// ciphertext is ever submitted against them.
func (s *Server) handleRegister(req *RegisterProgram) Response {
	hash := hashBytes(req.Binary)
	s.mu.Lock()
	entry, cached := s.programs[hash]
	s.mu.Unlock()
	if !cached {
		prog, err := core.Load(req.Binary)
		if err != nil {
			return Response{Err: toWire(fmt.Errorf("%w: %v", ErrRejected, err))}
		}
		pn, err := s.analyzeNoise(prog)
		if err != nil {
			return Response{Err: toWire(fmt.Errorf("%w: %v", ErrRejected, err))}
		}
		p, err := plan.Compile(prog.Netlist)
		if err != nil {
			return Response{Err: toWire(fmt.Errorf("%w: plan compile: %v", ErrRejected, err))}
		}
		s.mu.Lock()
		if existing, ok := s.programs[hash]; ok {
			entry, cached = existing, true // lost a registration race
		} else {
			entry = &programEntry{prog: prog, plan: p, noise: pn}
			s.programs[hash] = entry
			atomic.AddInt64(&s.planMisses, 1)
		}
		s.mu.Unlock()
	}
	st := entry.prog.Stats
	return Response{Program: &ProgramInfo{
		Hash:         hash,
		Name:         entry.prog.Name,
		Cached:       cached,
		Inputs:       st.Inputs,
		Gates:        st.Gates,
		Bootstrapped: st.Bootstrapped,
		LUTs:         st.LUTs,
		Outputs:      st.Outputs,
		Depth:        st.Depth,
		Noise:        entry.noise,
	}}
}

// analyzeNoise runs the admission-time static noise-budget dataflow and
// returns the wire summary, or the rejection error for an over-budget (or
// unanalyzable) netlist. With the check disabled it reports an unchecked
// zero summary.
func (s *Server) analyzeNoise(prog *core.Program) (ProgramNoise, error) {
	if s.cfg.DisableNoiseCheck {
		return ProgramNoise{}, nil
	}
	rep, err := noise.AnalyzeNetlist(prog.Netlist, s.cfg.NoiseParams, s.cfg.NoiseMinSigmas)
	if err != nil {
		return ProgramNoise{}, err
	}
	if err := rep.Err(); err != nil {
		return ProgramNoise{}, err
	}
	worst := rep.MaxNoise.Sigmas
	if rep.Bootstrapped == 0 || rep.WorstOutputSigmas < worst {
		worst = rep.WorstOutputSigmas
	}
	return ProgramNoise{
		Checked:      true,
		Params:       rep.Params,
		HeadroomBits: rep.HeadroomBits,
		WorstSigmas:  worst,
		FailureProb:  rep.CircuitFailureProb,
	}, nil
}

// handleOpen registers the session's cloud key with the shared executor.
// Identical keys (by content hash) share one executor handle, so N
// sessions of the same tenant cost one engine set, not N. The server
// refcounts open sessions per key hash; the last close releases the key's
// executor engines (closeSession).
func (s *Server) handleOpen(req *OpenSession, sess **session) Response {
	if req.Key == nil {
		return Response{Err: &WireError{Code: codeInternal, Msg: "open session carried no cloud key"}}
	}
	// The key is tenant-supplied: a wrong shape must be refused here, not
	// found by an index panic in a worker goroutine.
	if err := req.Key.Validate(); err != nil {
		return Response{Err: &WireError{Code: codeInternal, Msg: fmt.Sprintf("bad cloud key: %v", err)}}
	}
	keyHash, err := hashKey(req.Key)
	if err != nil {
		return Response{Err: &WireError{Code: codeInternal, Msg: err.Error()}}
	}
	// The ref increment shares the critical section with the handle
	// lookup so a concurrent closeSession of the same key cannot release
	// the handle between our lookup and our claim on it.
	s.mu.Lock()
	handle, shared := s.keys[keyHash]
	if shared {
		s.sessRefs[keyHash]++
	}
	s.mu.Unlock()
	if !shared {
		h, err := s.exec.RegisterKey(req.Key)
		if err != nil {
			return Response{Err: toWire(err)}
		}
		s.mu.Lock()
		if existing, ok := s.keys[keyHash]; ok {
			handle, shared = existing, true // lost an open race; h stays unused
		} else {
			handle = h
			s.keys[keyHash] = h
		}
		s.sessRefs[keyHash]++
		s.mu.Unlock()
	}
	s.exec.SetTenantWeight(handle, tenantWeight(s.cfg.TenantWeights, keyHash))
	if s.coord != nil {
		s.bindCluster(keyHash, req.Key)
	}
	// A re-open on the same connection replaces the session: drop the old
	// key's ref or it would leak until the connection closes.
	if *sess != nil {
		s.closeSession((*sess).keyHash)
	}
	*sess = &session{handle: handle, keyHash: keyHash}
	id := atomic.AddUint64(&s.sessions, 1)
	return Response{Session: &SessionInfo{ID: id, KeyShared: shared}}
}

// tenantWeight resolves a key hash's fair-share weight: the longest
// matching prefix in weights wins, and a hash matching none weighs 1.
func tenantWeight(weights map[string]float64, keyHash string) float64 {
	w, matched := 1.0, -1
	for prefix, pw := range weights {
		if len(prefix) > matched && strings.HasPrefix(keyHash, prefix) {
			w, matched = pw, len(prefix)
		}
	}
	return w
}

// closeSession drops one session's claim on its cloud key. The last
// session out releases the key on the shared executor — its per-worker
// engines go with the handle — and the next session under the same key
// rebuilds them.
func (s *Server) closeSession(keyHash string) {
	s.mu.Lock()
	n := s.sessRefs[keyHash] - 1
	if n > 0 {
		s.sessRefs[keyHash] = n
		s.mu.Unlock()
		return
	}
	delete(s.sessRefs, keyHash)
	handle := s.keys[keyHash]
	delete(s.keys, keyHash)
	s.mu.Unlock()
	if handle != nil {
		s.exec.ReleaseKey(handle)
	}
}

// bindCluster broadcasts the first session's cloud key to the worker pool.
// Later sessions with the same key share the binding; sessions with a
// different key are simply not eligible for cluster dispatch (the check in
// evaluateCluster compares hashes), so they evaluate locally.
func (s *Server) bindCluster(keyHash string, ck *boot.CloudKey) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.clusterErr != nil || s.clusterKey != "" {
		return
	}
	if err := s.coord.SetKey(ck); err != nil {
		s.clusterErr = fmt.Errorf("serve: cluster key broadcast: %w", err)
		return
	}
	s.clusterKey = keyHash
}

// hashKey content-addresses a cloud key; the hash doubles as the cluster
// handshake's key check, so the streaming logic lives in wire.KeyHash.
func hashKey(ck *boot.CloudKey) (string, error) {
	return wire.KeyHash(ck)
}

// handleEval wraps the evaluation path with telemetry: every request is
// counted by tenant and outcome (the wire error code), and successful
// latencies feed the per-tenant SLO histogram.
func (s *Server) handleEval(sess *session, req *EvalRequest) Response {
	tenant := "none"
	if sess != nil {
		tenant = tenantLabel(sess.keyHash)
	}
	start := time.Now()
	resp := s.doEval(sess, req)
	s.met.observeRequest(tenant, resp, float64(time.Since(start).Nanoseconds())/1e6)
	return resp
}

// doEval is the admission-controlled evaluation path: per-tenant quota,
// bounded queue, slot acquisition with deadline, then evaluate.
func (s *Server) doEval(sess *session, req *EvalRequest) Response {
	if sess == nil {
		return Response{Err: toWire(ErrNoSession)}
	}
	s.mu.Lock()
	entry := s.programs[req.ProgramHash]
	s.mu.Unlock()
	if entry == nil {
		return Response{Err: toWire(fmt.Errorf("%w: %.16s…", ErrUnknownProgram, req.ProgramHash))}
	}
	prog := entry.prog
	if len(req.Inputs) != prog.Stats.Inputs {
		return Response{Err: &WireError{Code: codeInternal,
			Msg: fmt.Sprintf("program %s takes %d inputs, got %d", prog.Name, prog.Stats.Inputs, len(req.Inputs))}}
	}

	// Per-tenant quota: a tenant over its in-flight or gate budget fails
	// fast before consuming a queue slot, so one tenant's burst cannot
	// occupy the shared admission queue.
	if err := s.quota.Acquire(sess.keyHash, prog.Stats.Gates); err != nil {
		atomic.AddInt64(&s.quotaRej, 1)
		return Response{Err: toWire(err)}
	}
	defer s.quota.Release(sess.keyHash, prog.Stats.Gates)

	// Admission: the queue is bounded at MaxConcurrent running plus
	// QueueCap waiting; past that the request is shed immediately.
	if n := atomic.AddInt32(&s.queued, 1); int(n) > s.cfg.MaxConcurrent+s.cfg.QueueCap {
		atomic.AddInt32(&s.queued, -1)
		atomic.AddInt64(&s.rejected, 1)
		return Response{Err: toWire(ErrOverloaded)}
	}
	defer atomic.AddInt32(&s.queued, -1)

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	waitStart := time.Now()
	select {
	case s.slots <- struct{}{}:
		s.met.queueWait.Observe(float64(time.Since(waitStart).Nanoseconds()) / 1e6)
	case <-ctx.Done():
		return Response{Err: toWire(fmt.Errorf("%w after %v in queue", ErrTimeout, timeout))}
	case <-s.kickCh:
		return Response{Err: toWire(ErrDraining)}
	}
	atomic.AddInt32(&s.inflight, 1)
	defer func() {
		atomic.AddInt32(&s.inflight, -1)
		<-s.slots
	}()

	start := time.Now()
	outs, err := s.evaluate(ctx, sess, entry, req.Inputs)
	if err != nil {
		if ctx.Err() != nil {
			return Response{Err: toWire(fmt.Errorf("%w after %v", ErrTimeout, timeout))}
		}
		if errors.Is(err, backend.ErrExecutorClosed) {
			return Response{Err: toWire(ErrDraining)}
		}
		return Response{Err: toWire(err)}
	}
	elapsed := time.Since(start)
	entry.recordLatency(float64(elapsed.Nanoseconds()) / 1e6)
	atomic.AddInt64(&entry.hits, 1)
	atomic.AddInt64(&s.evals, 1)
	if n := prog.Stats.LUTs; n > 0 {
		atomic.AddInt64(&s.lutEvals, int64(n))
	}
	return Response{Eval: &EvalResult{
		Outputs:   outs,
		ElapsedMs: elapsed.Milliseconds(),
	}}
}

// evaluate runs one admitted request: as plan shards on the worker pool
// when evaluateCluster takes it, otherwise as a replay of the plan
// registration compiled, on the shared executor's fair queue. There is no
// other local path.
func (s *Server) evaluate(ctx context.Context, sess *session, entry *programEntry, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	if s.beforeEval != nil {
		s.beforeEval()
	}
	if outs, ok := s.evaluateCluster(sess, entry, inputs); ok {
		return outs, nil
	}
	atomic.AddInt64(&s.planReplays, 1)
	outs, _, err := s.exec.Submit(ctx, sess.handle, entry.plan, inputs)
	return outs, err
}

// evaluateCluster tries to dispatch one evaluation as plan shards across
// the worker pool. ok=false means "evaluate locally": clustering disabled,
// the pool is bound to a different key, another sharded run owns the
// workers, the pool never came up, or this run lost every worker mid-way.
// Run failures are not sticky — ServeJoins keeps admitting replacement
// workers, so the next evaluation probes the pool again.
func (s *Server) evaluateCluster(sess *session, entry *programEntry, inputs []*lwe.Sample) ([]*lwe.Sample, bool) {
	if s.coord == nil {
		return nil, false
	}
	s.cmu.Lock()
	eligible := s.clusterErr == nil && s.clusterKey != "" && s.clusterKey == sess.keyHash
	s.cmu.Unlock()
	if !eligible {
		return nil, false
	}
	if !s.clusterRun.TryLock() {
		atomic.AddInt64(&s.clusterFallbacks, 1)
		return nil, false
	}
	defer s.clusterRun.Unlock()
	if !s.clusterWorkersUp() {
		atomic.AddInt64(&s.clusterFallbacks, 1)
		return nil, false
	}
	outs, err := s.coord.RunPlan(entry.plan, inputs)
	if err != nil {
		atomic.AddInt64(&s.clusterFallbacks, 1)
		return nil, false
	}
	atomic.AddInt64(&s.clusterEvals, 1)
	return outs, true
}

// clusterWorkersUp waits (once, bounded by ClusterJoinWait) for the
// configured worker count to join. A pool that never comes up is a sticky
// failure; a pool that came up once is trusted from then on — Run
// itself tolerates losses down to a single surviving worker.
func (s *Server) clusterWorkersUp() bool {
	s.cmu.Lock()
	up, failed := s.clusterUp, s.clusterErr != nil
	s.cmu.Unlock()
	if up {
		return true
	}
	if failed {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ClusterJoinWait)
	defer cancel()
	err := s.coord.WaitWorkers(ctx, s.cfg.ClusterWorkers)
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if err != nil {
		s.clusterErr = fmt.Errorf("serve: cluster pool never came up: %w", err)
		return false
	}
	s.clusterUp = true
	return true
}

func (s *Server) handleStats() Response {
	return Response{Stats: s.statsSnapshot()}
}

// statsSnapshot assembles the full statistics reply. It backs both the
// Stats RPC and every scrape-time /metrics series, so the wire struct and
// the exported series can never drift apart.
func (s *Server) statsSnapshot() *StatsReply {
	ex := s.exec.Stats()
	labels := s.tenantLabels()
	s.mu.Lock()
	per := make(map[string]int64, len(s.programs))
	lat := make(map[string]LatencyStats, len(s.programs))
	noi := make(map[string]ProgramNoise, len(s.programs))
	for hash, entry := range s.programs {
		per[hash] = atomic.LoadInt64(&entry.hits)
		lat[hash] = entry.latencyStats()
		noi[hash] = entry.noise
	}
	nProgs := len(s.programs)
	s.mu.Unlock()
	picks := make(map[string]int64, len(ex.TenantPicks))
	for id, n := range ex.TenantPicks {
		picks[labelForID(labels, id)] = n
	}
	tq := make(map[string]int, len(ex.TenantQueued))
	for id, n := range ex.TenantQueued {
		tq[labelForID(labels, id)] = n
	}
	replays := atomic.LoadInt64(&s.planReplays)
	queued := atomic.LoadInt32(&s.queued)
	inflight := atomic.LoadInt32(&s.inflight)
	depth := int(queued - inflight)
	if depth < 0 {
		depth = 0
	}
	var cs *ClusterStats
	if s.coord != nil {
		tot := s.coord.Totals()
		cs = &ClusterStats{
			Workers:       s.coord.WorkerCount(),
			Evals:         atomic.LoadInt64(&s.clusterEvals),
			Fallbacks:     atomic.LoadInt64(&s.clusterFallbacks),
			ShardRuns:     tot.ShardRuns,
			ShardHits:     tot.ShardHits,
			ShardMisses:   tot.ShardMisses,
			ShardReships:  tot.ShardReships,
			WireBytesSent: tot.WireBytesSent,
			WireBytesRecv: tot.WireBytesRecv,
			BoundaryBytes: tot.BoundaryBytes,
			WorkersLost:   tot.WorkersLost,
		}
	}
	return &StatsReply{
		QueueDepth:       depth,
		InFlight:         int(inflight),
		Sessions:         atomic.LoadUint64(&s.sessions),
		Programs:         nProgs,
		Evaluations:      atomic.LoadInt64(&s.evals),
		Rejected:         atomic.LoadInt64(&s.rejected),
		QuotaRejected:    atomic.LoadInt64(&s.quotaRej),
		KeysReleased:     ex.KeysReleased,
		TenantPicks:      picks,
		TenantQueued:     tq,
		GatesPerSec:      ex.GatesPerSec(),
		BootstrapsPerSec: ex.BootstrapsPerSec(),
		UptimeMs:         time.Since(s.start).Milliseconds(),
		PerProgram:       per,

		Workers:            ex.Workers,
		WorkerBusyMs:       ex.WorkerBusy.Milliseconds(),
		ExecutorGates:      ex.Gates,
		ExecutorBootstraps: ex.Bootstraps,
		ExecutorLUTs:       ex.LUTs,
		LUTsEvaluated:      atomic.LoadInt64(&s.lutEvals),

		PlanHits:          replays, // every local replay runs a registered plan
		PlanMisses:        atomic.LoadInt64(&s.planMisses),
		PlanReplays:       replays,
		ArenaHighWater:    ex.ArenaHighWater,
		PerProgramLatency: lat,
		ProgramNoise:      noi,

		BatchSize:         ex.BatchSize,
		Batches:           ex.Batches,
		BatchedBootstraps: ex.BatchedBootstraps,
		CrossRunBatches:   ex.CrossRunBatches,
		AvgBatchFill:      ex.AvgBatchFill(),

		Cluster: cs,
	}
}

// Drain gracefully shuts the server down: stop accepting connections,
// reject new evaluations with ErrDraining, wait for in-flight evaluations
// (responses included) to finish — or for ctx to expire — then close all
// connections and the executor. It returns ctx.Err() when the deadline
// cut the wait short, nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	if !atomic.CompareAndSwapInt32(&s.draining, 0, 1) {
		s.connWG.Wait()
		return nil
	}
	if s.ln != nil {
		s.ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.evalWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Forced shutdown: kick requests still waiting for a slot and
		// abort in-flight executor submissions, or the connection
		// handlers below could block for the full request timeout.
		err = ctx.Err()
		close(s.kickCh)
		s.exec.Close()
	}
	// Dismiss the worker pool: on a clean drain no sharded run is in
	// flight; on a forced one closing the worker links aborts it and the
	// request falls back to the (also closing) executor.
	if s.coord != nil {
		_ = s.coord.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.exec.Close()
	if s.metricsSrv != nil {
		_ = s.metricsSrv.Close() // last: metrics stay scrapeable through the drain
	}
	return err
}

// Close shuts down immediately: in-flight evaluations are aborted by the
// executor closing under them.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(ctx)
	if err == context.Canceled {
		return nil
	}
	return err
}

// Executor exposes the shared executor (tests and the daemon's log line).
func (s *Server) Executor() *backend.Shared { return s.exec }
