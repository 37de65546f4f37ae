package serve

import (
	"reflect"
	"strconv"
	"strings"

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

// metrics holds the families observed inline on the request path. Every
// other series is declared in scrapeSeries and read at scrape time from one
// statsSnapshot, the value the Stats RPC returns, so the two can never
// disagree and the hot path pays nothing for them.
type metrics struct {
	requests  *telemetry.CounterVec   // {tenant, outcome}
	latency   *telemetry.HistogramVec // {tenant}, ms, ok requests only
	queueWait *telemetry.Histogram    // ms waiting for an evaluation slot
}

// statSeries declares one scrape-time family: its name, type and help,
// and the StatsReply field it reads — dotted for a field of the Cluster
// sub-struct, which reads 0 while the daemon runs without a cluster. A
// map field (per-tenant) yields one series per key under label.
type statSeries struct {
	name, typ, field, help string
	label                  string  // map fields only
	perUnit                float64 // field units per series unit (0: same unit)
}

func counter(name, field, help string) statSeries {
	return statSeries{name: name, typ: "counter", field: field, help: help}
}

func gauge(name, field, help string) statSeries {
	return statSeries{name: name, typ: "gauge", field: field, help: help}
}

var scrapeSeries = []statSeries{
	gauge("pytfhed_queue_depth", "QueueDepth", "Admitted requests waiting for a slot."),
	gauge("pytfhed_inflight", "InFlight", "Evaluations currently executing."),
	counter("pytfhed_sessions_total", "Sessions", "Sessions opened since start."),
	gauge("pytfhed_programs", "Programs", "Programs in the registry."),
	counter("pytfhed_evaluations_total", "Evaluations", "Completed evaluations."),
	counter("pytfhed_rejected_total", "Rejected", "Requests shed by the bounded admission queue."),
	counter("pytfhed_quota_rejected_total", "QuotaRejected", "Requests refused by per-tenant quotas."),
	counter("pytfhed_keys_released_total", "KeysReleased", "Cloud keys released after their last session closed."),
	{name: "pytfhed_uptime_seconds", typ: "gauge", field: "UptimeMs", perUnit: 1e3, help: "Seconds since the daemon started."},

	{name: "pytfhed_sched_picks_total", typ: "counter", field: "TenantPicks", label: "tenant", help: "Fair-scheduler picks per tenant."},
	{name: "pytfhed_sched_queued", typ: "gauge", field: "TenantQueued", label: "tenant", help: "Level slices queued per tenant on the shared executor."},

	gauge("pytfhed_workers", "Workers", "Executor worker goroutines."),
	counter("pytfhed_worker_busy_ms_total", "WorkerBusyMs", "Cumulative evaluation time across workers, ms."),
	counter("pytfhed_executor_gates_total", "ExecutorGates", "Plan instructions executed by the shared executor."),
	counter("pytfhed_executor_bootstraps_total", "ExecutorBootstraps", "Bootstrapped instructions executed by the shared executor."),
	counter("pytfhed_executor_luts_total", "ExecutorLUTs", "Multi-input LUT instructions executed by the shared executor."),
	counter("pytfhed_luts_evaluated_total", "LUTsEvaluated", "Logical LUT gates across completed evaluations, all paths."),

	counter("pytfhed_plan_hits_total", "PlanHits", "Evaluations served from a registered execution plan."),
	counter("pytfhed_plan_misses_total", "PlanMisses", "Execution plans compiled, one per newly registered program."),
	counter("pytfhed_plan_replays_total", "PlanReplays", "Evaluations replayed on the local executor."),
	gauge("pytfhed_arena_high_water", "ArenaHighWater", "Peak ciphertext count of any one replay arena."),

	counter("pytfhed_batches_total", "Batches", "Amortized bootstrap kernel dispatches."),
	counter("pytfhed_batched_bootstraps_total", "BatchedBootstraps", "Bootstrapped instructions covered by batched dispatches."),
	counter("pytfhed_cross_run_batches_total", "CrossRunBatches", "Batches spanning two or more concurrent requests."),
	gauge("pytfhed_batch_fill", "AvgBatchFill", "Average bootstrapped instructions per batched dispatch."),

	gauge("pytfhed_cluster_workers", "Cluster.Workers", "Workers currently joined to the coordinator."),
	counter("pytfhed_cluster_evals_total", "Cluster.Evals", "Evaluations dispatched as plan shards."),
	counter("pytfhed_cluster_fallbacks_total", "Cluster.Fallbacks", "Cluster-eligible evaluations that ran locally."),
	counter("pytfhed_cluster_shard_runs_total", "Cluster.ShardRuns", "Sharded plan runs."),
	counter("pytfhed_cluster_shard_hits_total", "Cluster.ShardHits", "Shards found resident on their worker."),
	counter("pytfhed_cluster_shard_misses_total", "Cluster.ShardMisses", "Shards shipped on first use."),
	counter("pytfhed_cluster_shard_reships_total", "Cluster.ShardReships", "Shards re-hosted after a worker loss."),
	counter("pytfhed_cluster_wire_bytes_sent_total", "Cluster.WireBytesSent", "Coordinator bytes sent to workers."),
	counter("pytfhed_cluster_wire_bytes_recv_total", "Cluster.WireBytesRecv", "Coordinator bytes received from workers."),
	counter("pytfhed_cluster_boundary_bytes_total", "Cluster.BoundaryBytes", "Bytes of per-run boundary ciphertexts on the wire."),
	counter("pytfhed_cluster_workers_lost_total", "Cluster.WorkersLost", "Workers lost mid-run."),
}

// latencyBuckets spans sub-millisecond test-parameter replays up to
// multi-minute production evaluations: 1ms … ~8.7min, ×2 per bucket.
var latencyBuckets = telemetry.ExpBuckets(1, 2, 20)

// newMetrics registers the inline families, then every scrapeSeries
// family, all reading the one snapshot each scrape takes.
func newMetrics(reg *telemetry.Registry, snapshot func() *StatsReply) *metrics {
	m := &metrics{
		requests: reg.CounterVec("pytfhed_requests_total",
			"Evaluation requests by tenant and outcome (outcome is ok or a wire error code).",
			"tenant", "outcome"),
		latency: reg.HistogramVec("pytfhed_request_latency_ms",
			"End-to-end latency of successful evaluations, queue wait included.",
			latencyBuckets, "tenant"),
		queueWait: reg.Histogram("pytfhed_queue_wait_ms",
			"Time admitted requests spent waiting for an evaluation slot.",
			latencyBuckets),
	}
	reg.OnScrape(func() any { return snapshot() })
	for _, d := range scrapeSeries {
		var labels []string
		if d.label != "" {
			labels = []string{d.label}
		}
		reg.Func(d.name, d.help, d.typ, func(snap any) []telemetry.Sample {
			return d.read(snap.(*StatsReply))
		}, labels...)
	}
	return m
}

// read returns the series' samples from one snapshot.
func (d statSeries) read(st *StatsReply) []telemetry.Sample {
	v := reflect.ValueOf(st)
	for _, name := range strings.Split(d.field, ".") {
		if v.IsNil() {
			return []telemetry.Sample{{}}
		}
		v = v.Elem().FieldByName(name)
	}
	if v.Kind() == reflect.Map {
		out := make([]telemetry.Sample, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			out = append(out, telemetry.Sample{Labels: []string{it.Key().String()}, Value: number(it.Value())})
		}
		return out
	}
	if d.perUnit != 0 {
		return []telemetry.Sample{{Value: number(v) / d.perUnit}}
	}
	return []telemetry.Sample{{Value: number(v)}}
}

// number reads an integer or float field as a float64.
func number(v reflect.Value) float64 {
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	}
	return v.Float()
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
