package telemetry

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExposition pins the text format end to end: family metadata,
// label rendering and escaping, series sorting, histogram buckets.
func TestExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "Requests served.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("app_queue_depth", "Requests waiting.")
	g.Set(3)
	cv := r.CounterVec("app_picks_total", "Scheduler picks.", "tenant")
	cv.With("beta").Add(2)
	cv.With("alpha").Add(5)
	cv.With(`we"ird\nl` + "\n").Inc()
	h := r.Histogram("app_latency_ms", "Latency.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total 42
# HELP app_queue_depth Requests waiting.
# TYPE app_queue_depth gauge
app_queue_depth 3
# HELP app_picks_total Scheduler picks.
# TYPE app_picks_total counter
app_picks_total{tenant="alpha"} 5
app_picks_total{tenant="beta"} 2
app_picks_total{tenant="we\"ird\\nl\n"} 1
# HELP app_latency_ms Latency.
# TYPE app_latency_ms histogram
app_latency_ms_bucket{le="1"} 1
app_latency_ms_bucket{le="10"} 3
app_latency_ms_bucket{le="+Inf"} 4
app_latency_ms_sum 110.5
app_latency_ms_count 4
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramVecAndQuantile drives a labeled histogram and the bucket
// quantile estimator.
func TestHistogramVecAndQuantile(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lat_ms", "", ExpBuckets(1, 2, 6), "tenant")
	h := hv.With("t0")
	for i := 0; i < 95; i++ {
		h.Observe(3) // lands in the le=4 bucket
	}
	for i := 0; i < 5; i++ {
		h.Observe(30) // lands in le=32
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 4 {
		t.Fatalf("p50 = %v, want 4", q)
	}
	if q := h.Quantile(0.99); q != 32 {
		t.Fatalf("p99 = %v, want 32", q)
	}
	if hv.With("t0") != h {
		t.Fatal("With not idempotent")
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `lat_ms_bucket{tenant="t0",le="4"} 95`) {
		t.Fatalf("vec histogram missing bucket series:\n%s", sb.String())
	}
	// Empty registry entries (no series) render nothing.
	r.CounterVec("unused_total", "", "x")
	sb.Reset()
	r.WritePrometheus(&sb)
	if strings.Contains(sb.String(), "unused_total") {
		t.Fatal("family with no series rendered")
	}
}

// TestScrapeHookAndHandler checks each scrape takes one OnScrape snapshot
// that every Func family reads, and the HTTP handler serves the format
// with the right content type.
func TestScrapeHookAndHandler(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.OnScrape(func() any { n++; return n })
	r.Func("snap_gauge", "", "gauge", func(snap any) []Sample {
		return []Sample{{Value: float64(snap.(int)) * 10}}
	})
	r.Func("snap_total", "", "counter", func(snap any) []Sample {
		return []Sample{{Labels: []string{"b"}, Value: float64(snap.(int))}, {Labels: []string{"a"}, Value: 7}}
	}, "k")

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	for scrape := 1; scrape <= 2; scrape++ {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			m, err := resp.Body.Read(buf)
			sb.Write(buf[:m])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		want := fmt.Sprintf("# TYPE snap_gauge gauge\nsnap_gauge %d\n# TYPE snap_total counter\nsnap_total{k=\"a\"} 7\nsnap_total{k=\"b\"} %d\n",
			scrape*10, scrape)
		if n != scrape || sb.String() != want {
			t.Fatalf("scrape %d took %d snapshots:\n%s\nwant:\n%s", scrape, n, sb.String(), want)
		}
	}
}

// TestConcurrentUpdates hammers every metric type while scraping, for
// the race detector.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_ms", "", []float64{1, 5, 25})
	cv := r.CounterVec("cv_total", "", "t")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 30))
				cv.With([]string{"a", "b", "c"}[i%3]).Inc()
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			for i := 0; i < 50; i++ {
				sb.Reset()
				r.WritePrometheus(&sb)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if h.Count() != 4000 {
		t.Fatalf("histogram count = %d, want 4000", h.Count())
	}
}
