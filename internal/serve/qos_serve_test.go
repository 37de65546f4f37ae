package serve

import (
	"errors"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pytfhe/internal/core"
	"pytfhe/internal/qos"
)

// TestTenantWeight pins -tenant-weight resolution: the longest matching
// prefix wins whatever the map's iteration order, and a key matching no
// prefix weighs 1.
func TestTenantWeight(t *testing.T) {
	hash := "ab12cd34" + strings.Repeat("e", 56)
	cases := []struct {
		name    string
		weights map[string]float64
		want    float64
	}{
		{"overlapping prefixes", map[string]float64{"ab": 2, "ab12cd34": 4, "ab12": 3, "ff": 8}, 4},
		{"no match", map[string]float64{"ff": 8, "ab13": 3}, 1},
		{"no weights", nil, 1},
		{"full hash as prefix", map[string]float64{"ab": 2, "ab12cd34": 4, hash: 16}, 16},
	}
	for _, tc := range cases {
		// Map order is random per iteration: repeat so a resolution that
		// depends on it cannot pass by luck.
		for i := 0; i < 50; i++ {
			if got := tenantWeight(tc.weights, hash); got != tc.want {
				t.Fatalf("%s: weight %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

// TestServeKeyLifecycleRelease pins the session-refcounted key release:
// while any session under a key is open the key's executor handle (and
// the engines it carries) stays registered; when the last one closes it
// is released, and a later session under the same key transparently
// rebuilds everything.
func TestServeKeyLifecycleRelease(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 1})

	open := func() *Client {
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.RegisterProgram(prog.Binary); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.OpenSession(kp.Cloud); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	hash := hashBytes(prog.Binary)

	cl1, cl2 := open(), open()
	if _, err := cl1.Evaluate(hash, kp.EncryptBits(bitsOf(0x35, 8))); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	registered := len(srv.keys)
	srv.mu.Unlock()
	if registered != 1 {
		t.Fatalf("%d executor keys registered for two sessions of one tenant, want 1", registered)
	}

	// First session closes: the key is still claimed by cl2, so nothing
	// is released and cl2 keeps evaluating.
	cl1.Close()
	deadline := time.Now().Add(5 * time.Second)
	if _, err := cl2.Evaluate(hash, kp.EncryptBits(bitsOf(0x11, 8))); err != nil {
		t.Fatal(err)
	}
	if st := srv.statsSnapshot(); st.KeysReleased != 0 {
		t.Fatalf("key released while a session still holds it: %+v", st)
	}

	// Last session closes: release must land (asynchronously).
	cl2.Close()
	for {
		st := srv.statsSnapshot()
		srv.mu.Lock()
		registered := len(srv.keys)
		srv.mu.Unlock()
		if st.KeysReleased == 1 && registered == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lifecycle release never landed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The same key opens again and everything rebuilds transparently.
	cl3 := open()
	defer cl3.Close()
	outs, err := cl3.Evaluate(hash, kp.EncryptBits(bitsOf(0x35, 8)))
	if err != nil {
		t.Fatalf("eval after lifecycle release: %v", err)
	}
	if got := uintOf(kp.DecryptBits(outs)); got != 0x3+0x5 {
		t.Fatalf("post-release eval = %#x", got)
	}
}

// TestServeTenantQuota pins per-tenant admission quotas end to end: the
// typed error crosses the wire, the gate budget rejects deterministically,
// and under concurrency one tenant's in-flight cap does not throttle the
// other tenant.
func TestServeTenantQuota(t *testing.T) {
	kps := tenantKeys(t)
	prog := adder4Prog(t)

	// Gate budget: the adder has more than 3 gates, so every evaluation
	// of it is over budget — rejected with the typed error, no slot used.
	srv := startServer(t, Config{Workers: 1, TenantMaxQueuedGates: 3})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenSession(kps[0].Cloud); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Evaluate(info.Hash, kps[0].EncryptBits(bitsOf(0, 8)))
	if !errors.Is(err, ErrQuotaExceeded) || !errors.Is(err, qos.ErrQuotaExceeded) {
		t.Fatalf("gate-budget overflow: err = %v, want ErrQuotaExceeded", err)
	}
	if st := srv.statsSnapshot(); st.QuotaRejected != 1 {
		t.Fatalf("QuotaRejected = %d, want 1", st.QuotaRejected)
	}

	// In-flight cap: tenant 0 runs two connections against a cap of one
	// concurrent evaluation; overlap must produce a quota rejection on
	// tenant 0 while tenant 1 keeps evaluating untouched.
	srv2 := startServer(t, Config{Workers: 1, MaxConcurrent: 2, TenantMaxInFlight: 1})
	dial := func(kpIdx int) *Client {
		c, err := Dial(srv2.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RegisterProgram(prog.Binary); err != nil {
			t.Fatal(err)
		}
		if _, err := c.OpenSession(kps[kpIdx].Cloud); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a1, a2, b1 := dial(0), dial(0), dial(1)
	defer a1.Close()
	defer a2.Close()
	defer b1.Close()

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Tenant 0's first connection keeps an evaluation in flight;
			// quota rejections here are fine too (both conns share the cap).
			_, err := a1.Evaluate(info.Hash, kps[0].EncryptBits(bitsOf(0x21, 8)))
			if err != nil && !errors.Is(err, ErrQuotaExceeded) {
				return
			}
		}
	}()
	sawQuota := false
	deadline := time.Now().Add(20 * time.Second)
	for !sawQuota && time.Now().Before(deadline) {
		if _, err := a2.Evaluate(info.Hash, kps[0].EncryptBits(bitsOf(0x21, 8))); errors.Is(err, ErrQuotaExceeded) {
			sawQuota = true
		} else if err != nil {
			t.Fatalf("tenant 0: %v", err)
		}
		// Tenant 1 is never throttled by tenant 0's cap.
		if _, err := b1.Evaluate(info.Hash, kps[1].EncryptBits(bitsOf(0x21, 8))); err != nil {
			t.Fatalf("tenant 1 throttled: %v", err)
		}
	}
	close(stop)
	if !sawQuota {
		t.Fatal("tenant 0 never hit its in-flight cap despite concurrent connections")
	}
}

// metricFamilies is the /metrics surface once traffic has flowed: every
// family and its type.
var metricFamilies = []string{
	"pytfhed_arena_high_water gauge",
	"pytfhed_batch_fill gauge",
	"pytfhed_batched_bootstraps_total counter",
	"pytfhed_batches_total counter",
	"pytfhed_cluster_boundary_bytes_total counter",
	"pytfhed_cluster_evals_total counter",
	"pytfhed_cluster_fallbacks_total counter",
	"pytfhed_cluster_shard_hits_total counter",
	"pytfhed_cluster_shard_misses_total counter",
	"pytfhed_cluster_shard_reships_total counter",
	"pytfhed_cluster_shard_runs_total counter",
	"pytfhed_cluster_wire_bytes_recv_total counter",
	"pytfhed_cluster_wire_bytes_sent_total counter",
	"pytfhed_cluster_workers gauge",
	"pytfhed_cluster_workers_lost_total counter",
	"pytfhed_cross_run_batches_total counter",
	"pytfhed_evaluations_total counter",
	"pytfhed_executor_bootstraps_total counter",
	"pytfhed_executor_gates_total counter",
	"pytfhed_executor_luts_total counter",
	"pytfhed_inflight gauge",
	"pytfhed_keys_released_total counter",
	"pytfhed_luts_evaluated_total counter",
	"pytfhed_plan_hits_total counter",
	"pytfhed_plan_misses_total counter",
	"pytfhed_plan_replays_total counter",
	"pytfhed_programs gauge",
	"pytfhed_queue_depth gauge",
	"pytfhed_queue_wait_ms histogram",
	"pytfhed_quota_rejected_total counter",
	"pytfhed_rejected_total counter",
	"pytfhed_request_latency_ms histogram",
	"pytfhed_requests_total counter",
	"pytfhed_sched_picks_total counter",
	"pytfhed_sched_queued gauge",
	"pytfhed_sessions_total counter",
	"pytfhed_uptime_seconds gauge",
	"pytfhed_worker_busy_ms_total counter",
	"pytfhed_workers gauge",
}

// statField reads a dotted StatsReply field path, a nil sub-struct
// reading as its zero value.
func statField(t *testing.T, st *StatsReply, path string) reflect.Value {
	t.Helper()
	v := reflect.ValueOf(st)
	for _, name := range strings.Split(path, ".") {
		if v.IsNil() {
			v = reflect.New(v.Type().Elem())
		}
		if v = v.Elem().FieldByName(name); !v.IsValid() {
			t.Fatalf("StatsReply has no field %s", path)
		}
	}
	return v
}

// TestServeMetricsEndpoint drives the daemon with the /metrics listener
// on and checks the exposition end to end: the endpoint serves the
// Prometheus text format with exactly the pinned families, the key
// series move as requests are served, and every scrape-time series
// equals the Stats RPC field it is declared to read.
func TestServeMetricsEndpoint(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 1, MetricsAddr: "127.0.0.1:0"})
	if srv.MetricsAddr() == "" {
		t.Fatal("metrics listener not bound")
	}

	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + srv.MetricsAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Before any traffic: the endpoint serves, and unlabeled families are
	// present with zero values.
	first := scrape()
	for _, want := range []string{
		"# TYPE pytfhed_evaluations_total counter",
		"# TYPE pytfhed_queue_depth gauge",
		"pytfhed_evaluations_total 0",
		"pytfhed_plan_misses_total 0",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("scrape missing %q:\n%s", want, first)
		}
	}

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenSession(kp.Cloud); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Evaluate(info.Hash, kp.EncryptBits(bitsOf(0x53, 8))); err != nil {
			t.Fatal(err)
		}
	}

	keyHash, err := hashKey(kp.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	tenant := tenantLabel(keyHash)
	second := scrape()
	for _, want := range []string{
		"# TYPE pytfhed_request_latency_ms histogram",
		"pytfhed_evaluations_total 3",
		`pytfhed_requests_total{tenant="` + tenant + `",outcome="ok"} 3`,
		`pytfhed_request_latency_ms_count{tenant="` + tenant + `"} 3`,
		"pytfhed_sessions_total 1",
		"pytfhed_plan_misses_total 1",
		"pytfhed_executor_gates_total",
		"pytfhed_plan_replays_total 3",
		"pytfhed_plan_hits_total 3",
		"pytfhed_uptime_seconds",
	} {
		if !strings.Contains(second, want) {
			t.Fatalf("scrape missing %q:\n%s", want, second)
		}
	}

	// Every non-comment line is NAME or NAME{labels}, one float value.
	var types []string
	series := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(second), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types = append(types, typ)
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if sp <= 0 || err != nil {
			t.Fatalf("malformed exposition line %q", line)
		}
		series[line[:sp]] = v
	}
	want := append([]string(nil), metricFamilies...)
	sort.Strings(want)
	sort.Strings(types)
	if strings.Join(types, "\n") != strings.Join(want, "\n") {
		t.Fatalf("metric families:\n%s\nwant:\n%s", strings.Join(types, "\n"), strings.Join(want, "\n"))
	}

	// The daemon is idle, so the scrape and a later Stats RPC agree on
	// every declared series (uptime only advances).
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	float := reflect.TypeOf(0.0)
	for _, d := range scrapeSeries {
		f := statField(t, st, d.field)
		if f.Kind() == reflect.Map {
			n := 0
			for name := range series {
				if strings.HasPrefix(name, d.name+"{") {
					n++
				}
			}
			if n != f.Len() {
				t.Fatalf("%s: %d series, StatsReply.%s has %d keys", d.name, n, d.field, f.Len())
			}
			for it := f.MapRange(); it.Next(); {
				name := d.name + `{` + d.label + `="` + it.Key().String() + `"}`
				if got, want := series[name], it.Value().Convert(float).Float(); got != want {
					t.Fatalf("%s = %v, StatsReply.%s = %v", name, got, d.field, want)
				}
			}
			continue
		}
		got, ok := series[d.name]
		want := f.Convert(float).Float()
		if d.name == "pytfhed_uptime_seconds" {
			if want /= 1e3; !ok || got > want || got < want-5 {
				t.Fatalf("uptime scraped %vs, Stats RPC later reports %vs", got, want)
			}
			continue
		}
		if !ok || got != want {
			t.Fatalf("%s = %v (present %v), StatsReply.%s = %v", d.name, got, ok, d.field, want)
		}
	}
}

// openSession dials srv, registers prog and opens kp's session.
func openSession(t *testing.T, srv *Server, kp *core.KeyPair, prog *core.Program) *Client {
	t.Helper()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.RegisterProgram(prog.Binary); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenSession(kp.Cloud); err != nil {
		t.Fatal(err)
	}
	return cl
}

// flood keeps `sessions` closed-loop connections of one tenant evaluating
// prog until stop closes, and returns the wait for all of them.
func flood(t *testing.T, srv *Server, kp *core.KeyPair, prog *core.Program, sessions int, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	hash := hashBytes(prog.Binary)
	in := kp.EncryptBits(bitsOf(0xA5A5A5A5A5A5, prog.Stats.Inputs))
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		cl := openSession(t, srv, kp, prog)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Evaluate(hash, in); err != nil {
					t.Errorf("flood: %v", err)
					return
				}
			}
		}()
	}
	return &wg
}

// TestServeFairnessUnderLoad is the starvation test on the path that
// serves traffic: every evaluation is a plan replay scheduled slice by
// slice on the executor's fair queue, so per-tenant picks, weights and the
// light tenant's latency bound describe real requests, not a fallback.
func TestServeFairnessUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping benchmark-style test; skipped in -short")
	}
	kps := tenantKeys(t)
	small, wide := adder4Prog(t), wideXorProg(t, 24)
	labels := [2]string{}
	for i, kp := range kps {
		h, err := hashKey(kp.Cloud)
		if err != nil {
			t.Fatal(err)
		}
		labels[i] = tenantLabel(h)
	}

	// A light tenant's small program closed-loop against a hot tenant
	// flooding a wide one from three sessions. Batch 2 keeps the scheduling
	// grain — what the light tenant can wait behind per level — small.
	t.Run("light tenant latency", func(t *testing.T) {
		srv := startServer(t, Config{Workers: 2, Batch: 2, MaxConcurrent: 8})
		cl := openSession(t, srv, kps[0], small)
		hash, in := hashBytes(small.Binary), kps[0].EncryptBits(bitsOf(0x96, 8))
		srv.mu.Lock()
		entry := srv.programs[hash]
		srv.mu.Unlock()
		// The latency is the server's own: admission to result, the part
		// the scheduler decides. Measured at the client it would also hold
		// two socket wake-ups, which a Go process whose every P is busy only
		// notices on the runtime's 10 ms background poll — saturation noise
		// that is the same for every tenant and no scheduler's doing.
		p95 := func(reps int) time.Duration {
			lats := make([]float64, reps)
			for i := range lats {
				if _, err := cl.Evaluate(hash, in); err != nil {
					t.Fatal(err)
				}
				entry.latMu.Lock()
				lats[i] = entry.lat[(entry.latN-1)%latencyWindow]
				entry.latMu.Unlock()
			}
			sort.Float64s(lats)
			return time.Duration(lats[(reps-1)*95/100] * float64(time.Millisecond))
		}
		const reps = 15
		p95(3)            // warm: engines, replay runtimes
		solo := p95(reps) // logged for comparison
		stop := make(chan struct{})
		wg := flood(t, srv, kps[1], wide, 3, stop)
		p95(3) // let the flood build its backlog
		before := srv.exec.Stats()
		contended := p95(reps)
		after := srv.exec.Stats()
		close(stop)
		wg.Wait()
		// The bound is in gate-times: the executor's mean busy time per
		// bootstrap over the contended window, so CPU time-sharing that
		// slows every gate slows the bound with it. Per level of its plan
		// the light tenant runs about one batch of its own and waits at
		// most one round — under two batches — behind the flood; the bound
		// allows one batch more for the stalls between gates a loaded host
		// adds, which busy time does not see. Behind the flood's whole
		// backlog in arrival order it would wait ~20 gate-times a level.
		n := after.Bootstraps - before.Bootstraps
		if n <= 0 {
			t.Fatal("no bootstraps in the contended window")
		}
		g := (after.WorkerBusy - before.WorkerBusy) / time.Duration(n)
		levels := entry.plan.Stats().Levels
		perLevel := 4 * srv.cfg.Batch
		bound := time.Duration(perLevel*levels) * g
		t.Logf("light tenant p95: solo %v, contended %v = %.1f gate-times of %v over %d levels (bound %v)",
			solo, contended, float64(contended)/float64(g), g, levels, bound)
		if contended > bound {
			t.Fatalf("light tenant starved: contended p95 %v > %d gate-times (%v) per level × %d levels",
				contended, perLevel, g, levels)
		}
		st := srv.statsSnapshot()
		if st.TenantPicks[labels[0]] == 0 || st.TenantPicks[labels[1]] == 0 {
			t.Fatalf("replays never reached the fair queue: picks %+v", st.TenantPicks)
		}
		if st.PlanFallbacks != 0 || st.PlanReplays != st.Evaluations {
			t.Fatalf("%d evaluations: %d replays, %d fallbacks", st.Evaluations, st.PlanReplays, st.PlanFallbacks)
		}
	})

	// Both tenants flood the same program; tenant 1 holds a 2:1 weight.
	t.Run("weights", func(t *testing.T) {
		h1, _ := hashKey(kps[1].Cloud)
		srv := startServer(t, Config{Workers: 2, Batch: 2, MaxConcurrent: 8,
			TenantWeights: map[string]float64{h1[:12]: 2}})
		stop := make(chan struct{})
		wg0 := flood(t, srv, kps[0], wide, 3, stop)
		wg1 := flood(t, srv, kps[1], wide, 3, stop)
		time.Sleep(100 * time.Millisecond) // both backlogs established
		before := srv.statsSnapshot().TenantPicks
		time.Sleep(time.Second)
		after := srv.statsSnapshot().TenantPicks
		close(stop)
		wg0.Wait()
		wg1.Wait()
		p0, p1 := after[labels[0]]-before[labels[0]], after[labels[1]]-before[labels[1]]
		t.Logf("picks over the window: weight 1 → %d, weight 2 → %d (%.2f:1)", p0, p1, float64(p1)/float64(max(p0, 1)))
		if p0 == 0 || float64(p1) < 1.4*float64(p0) || float64(p1) > 3*float64(p0) {
			t.Fatalf("2:1 weight served %d vs %d picks", p1, p0)
		}
	})
}
