package serve

import (
	"strconv"

	"pytfhe/internal/telemetry"
)

// tenantLabel is the metric label for a tenant: the cloud-key hash's
// first 8 hex digits — stable across sessions of the same key, short
// enough for dashboards, and not the full hash (label cardinality).
func tenantLabel(keyHash string) string {
	if len(keyHash) > 8 {
		return keyHash[:8]
	}
	return keyHash
}

// metrics is the daemon's telemetry surface. Request counts, latency,
// and queue wait are observed inline on the request path; everything
// else is a scrape-time mirror of the counters the daemon already keeps
// (Server.mirrorMetrics), so the hot path pays nothing for them.
type metrics struct {
	// Inline-observed.
	requests  *telemetry.CounterVec   // {tenant, outcome}
	latency   *telemetry.HistogramVec // {tenant}, ms, ok requests only
	queueWait *telemetry.Histogram    // ms waiting for an evaluation slot

	// Scrape-time mirrors.
	queueDepth    *telemetry.Gauge
	inflight      *telemetry.Gauge
	sessions      *telemetry.Counter
	programs      *telemetry.Gauge
	evals         *telemetry.Counter
	rejected      *telemetry.Counter
	quotaRejected *telemetry.Counter
	keysReleased  *telemetry.Counter
	uptime        *telemetry.Gauge

	schedPicks  *telemetry.CounterVec // {tenant}
	schedQueued *telemetry.GaugeVec   // {tenant}

	workers    *telemetry.Gauge
	workerBusy *telemetry.Counter // milliseconds
	execGates  *telemetry.Counter
	execBoots  *telemetry.Counter
	execLUTs   *telemetry.Counter
	lutsEval   *telemetry.Counter

	planHits    *telemetry.Counter
	planMisses  *telemetry.Counter
	planReplays *telemetry.Counter
	arenaHW     *telemetry.Gauge

	batches      *telemetry.Counter
	batchedBoots *telemetry.Counter
	crossBatches *telemetry.Counter
	batchFill    *telemetry.Gauge

	cacheBytes     *telemetry.GaugeVec   // {cache}
	cacheCap       *telemetry.GaugeVec   // {cache}
	cacheEntries   *telemetry.GaugeVec   // {cache}
	cacheHits      *telemetry.CounterVec // {cache}
	cacheMisses    *telemetry.CounterVec // {cache}
	cacheEvictions *telemetry.CounterVec // {cache}

	clusterWorkers   *telemetry.Gauge
	clusterEvals     *telemetry.Counter
	clusterFallbacks *telemetry.Counter
	shardRuns        *telemetry.Counter
	shardHits        *telemetry.Counter
	shardMisses      *telemetry.Counter
	shardReships     *telemetry.Counter
	wireSent         *telemetry.Counter
	wireRecv         *telemetry.Counter
	boundaryBytes    *telemetry.Counter
	workersLost      *telemetry.Counter
}

// latencyBuckets spans sub-millisecond test-parameter replays up to
// multi-minute production evaluations: 1ms … ~8.7min, ×2 per bucket.
var latencyBuckets = telemetry.ExpBuckets(1, 2, 20)

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		requests: reg.CounterVec("pytfhed_requests_total",
			"Evaluation requests by tenant and outcome (outcome is ok or a wire error code).",
			"tenant", "outcome"),
		latency: reg.HistogramVec("pytfhed_request_latency_ms",
			"End-to-end latency of successful evaluations, queue wait included.",
			latencyBuckets, "tenant"),
		queueWait: reg.Histogram("pytfhed_queue_wait_ms",
			"Time admitted requests spent waiting for an evaluation slot.",
			latencyBuckets),

		queueDepth:    reg.Gauge("pytfhed_queue_depth", "Admitted requests waiting for a slot."),
		inflight:      reg.Gauge("pytfhed_inflight", "Evaluations currently executing."),
		sessions:      reg.Counter("pytfhed_sessions_total", "Sessions opened since start."),
		programs:      reg.Gauge("pytfhed_programs", "Programs in the registry."),
		evals:         reg.Counter("pytfhed_evaluations_total", "Completed evaluations."),
		rejected:      reg.Counter("pytfhed_rejected_total", "Requests shed by the bounded admission queue."),
		quotaRejected: reg.Counter("pytfhed_quota_rejected_total", "Requests refused by per-tenant quotas."),
		keysReleased:  reg.Counter("pytfhed_keys_released_total", "Cloud keys released after their last session closed."),
		uptime:        reg.Gauge("pytfhed_uptime_seconds", "Seconds since the daemon started."),

		schedPicks: reg.CounterVec("pytfhed_sched_picks_total",
			"Fair-scheduler picks per tenant.", "tenant"),
		schedQueued: reg.GaugeVec("pytfhed_sched_queued",
			"Level slices queued per tenant on the shared executor.", "tenant"),

		workers:    reg.Gauge("pytfhed_workers", "Executor worker goroutines."),
		workerBusy: reg.Counter("pytfhed_worker_busy_ms_total", "Cumulative evaluation time across workers, ms."),
		execGates:  reg.Counter("pytfhed_executor_gates_total", "Plan instructions executed by the shared executor."),
		execBoots:  reg.Counter("pytfhed_executor_bootstraps_total", "Bootstrapped instructions executed by the shared executor."),
		execLUTs:   reg.Counter("pytfhed_executor_luts_total", "Multi-input LUT instructions executed by the shared executor."),
		lutsEval:   reg.Counter("pytfhed_luts_evaluated_total", "Logical LUT gates across completed evaluations, all paths."),

		planHits:    reg.Counter("pytfhed_plan_hits_total", "Evaluations that found a cached execution plan."),
		planMisses:  reg.Counter("pytfhed_plan_misses_total", "Evaluations that paid a plan compile."),
		planReplays: reg.Counter("pytfhed_plan_replays_total", "Evaluations replayed on the local executor."),
		arenaHW:     reg.Gauge("pytfhed_arena_high_water", "Peak ciphertext count of any one replay arena."),

		batches:      reg.Counter("pytfhed_batches_total", "Amortized bootstrap kernel dispatches."),
		batchedBoots: reg.Counter("pytfhed_batched_bootstraps_total", "Bootstrapped instructions covered by batched dispatches."),
		crossBatches: reg.Counter("pytfhed_cross_run_batches_total", "Batches spanning two or more concurrent requests."),
		batchFill:    reg.Gauge("pytfhed_batch_fill", "Average bootstrapped instructions per batched dispatch."),

		cacheBytes:     reg.GaugeVec("pytfhed_cache_bytes", "Accounted bytes resident per cache.", "cache"),
		cacheCap:       reg.GaugeVec("pytfhed_cache_cap_bytes", "Configured byte cap per cache (0: unbounded).", "cache"),
		cacheEntries:   reg.GaugeVec("pytfhed_cache_entries", "Entries resident per cache.", "cache"),
		cacheHits:      reg.CounterVec("pytfhed_cache_hits_total", "Cache lookups that hit.", "cache"),
		cacheMisses:    reg.CounterVec("pytfhed_cache_misses_total", "Cache lookups that missed.", "cache"),
		cacheEvictions: reg.CounterVec("pytfhed_cache_evictions_total", "Entries evicted (lifecycle releases included).", "cache"),

		clusterWorkers:   reg.Gauge("pytfhed_cluster_workers", "Workers currently joined to the coordinator."),
		clusterEvals:     reg.Counter("pytfhed_cluster_evals_total", "Evaluations dispatched as plan shards."),
		clusterFallbacks: reg.Counter("pytfhed_cluster_fallbacks_total", "Cluster-eligible evaluations that ran locally."),
		shardRuns:        reg.Counter("pytfhed_cluster_shard_runs_total", "Sharded plan runs."),
		shardHits:        reg.Counter("pytfhed_cluster_shard_hits_total", "Shards found resident on their worker."),
		shardMisses:      reg.Counter("pytfhed_cluster_shard_misses_total", "Shards shipped on first use."),
		shardReships:     reg.Counter("pytfhed_cluster_shard_reships_total", "Shards re-hosted after a worker loss."),
		wireSent:         reg.Counter("pytfhed_cluster_wire_bytes_sent_total", "Coordinator bytes sent to workers."),
		wireRecv:         reg.Counter("pytfhed_cluster_wire_bytes_recv_total", "Coordinator bytes received from workers."),
		boundaryBytes:    reg.Counter("pytfhed_cluster_boundary_bytes_total", "Bytes of per-run boundary ciphertexts on the wire."),
		workersLost:      reg.Counter("pytfhed_cluster_workers_lost_total", "Workers lost mid-run."),
	}
}

// observeRequest records one finished evaluation request. The outcome
// label is "ok" or the response's stable wire error code, so alerting
// can slice failures the same way clients classify them.
func (m *metrics) observeRequest(tenant string, resp Response, elapsedMs float64) {
	outcome := "ok"
	if resp.Err != nil {
		outcome = resp.Err.Code
	}
	m.requests.With(tenant, outcome).Inc()
	if resp.Err == nil {
		m.latency.With(tenant).Observe(elapsedMs)
	}
}

// mirrorMetrics copies the daemon's counters into the registry; it runs
// once per scrape via telemetry.Registry.OnScrape.
func (s *Server) mirrorMetrics() {
	m := s.met
	st := s.statsSnapshot()
	ex := s.exec.Stats()

	m.queueDepth.Set(float64(st.QueueDepth))
	m.inflight.Set(float64(st.InFlight))
	m.sessions.Set(int64(st.Sessions))
	m.programs.Set(float64(st.Programs))
	m.evals.Set(st.Evaluations)
	m.rejected.Set(st.Rejected)
	m.quotaRejected.Set(st.QuotaRejected)
	m.keysReleased.Set(st.KeysReleased)
	m.uptime.Set(float64(st.UptimeMs) / 1e3)

	for tenant, picks := range st.TenantPicks {
		m.schedPicks.With(tenant).Set(picks)
	}
	for tenant, queued := range st.TenantQueued {
		m.schedQueued.With(tenant).Set(float64(queued))
	}

	m.workers.Set(float64(ex.Workers))
	m.workerBusy.Set(ex.WorkerBusy.Milliseconds())
	m.execGates.Set(ex.Gates)
	m.execBoots.Set(ex.Bootstraps)
	m.execLUTs.Set(ex.LUTs)
	m.lutsEval.Set(st.LUTsEvaluated)

	m.planHits.Set(st.PlanHits)
	m.planMisses.Set(st.PlanMisses)
	m.planReplays.Set(st.PlanReplays)
	m.arenaHW.Set(float64(st.ArenaHighWater))

	m.batches.Set(st.Batches)
	m.batchedBoots.Set(st.BatchedBootstraps)
	m.crossBatches.Set(st.CrossRunBatches)
	m.batchFill.Set(st.AvgBatchFill)

	pc := st.PlanCache
	m.cacheBytes.With("plan").Set(float64(pc.Bytes))
	m.cacheCap.With("plan").Set(float64(pc.CapBytes))
	m.cacheEntries.With("plan").Set(float64(pc.Entries))
	m.cacheHits.With("plan").Set(pc.Hits)
	m.cacheMisses.With("plan").Set(pc.Misses)
	m.cacheEvictions.With("plan").Set(pc.Evictions)

	if cs := st.Cluster; cs != nil {
		m.clusterWorkers.Set(float64(cs.Workers))
		m.clusterEvals.Set(cs.Evals)
		m.clusterFallbacks.Set(cs.Fallbacks)
		m.shardRuns.Set(cs.ShardRuns)
		m.shardHits.Set(cs.ShardHits)
		m.shardMisses.Set(cs.ShardMisses)
		m.shardReships.Set(cs.ShardReships)
		m.wireSent.Set(cs.WireBytesSent)
		m.wireRecv.Set(cs.WireBytesRecv)
		m.boundaryBytes.Set(cs.BoundaryBytes)
		m.workersLost.Set(cs.WorkersLost)
	}
}

// tenantLabels maps shared-executor tenant ids to serve-level tenant
// labels for the snapshot's per-tenant maps. Ids without a live key
// (e.g. just-released tenants still in the fairness snapshot) fall back
// to the numeric id.
func (s *Server) tenantLabels() map[int64]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int64]string, len(s.keys))
	for keyHash, handle := range s.keys {
		out[handle.ID()] = tenantLabel(keyHash)
	}
	return out
}

func labelForID(labels map[int64]string, id int64) string {
	if l, ok := labels[id]; ok {
		return l
	}
	return strconv.FormatInt(id, 10)
}
