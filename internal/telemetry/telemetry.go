// Package telemetry is a dependency-free metrics registry exporting the
// Prometheus text exposition format (version 0.0.4): counters, gauges,
// and fixed-bucket histograms, optionally labeled, written determin-
// istically (families in registration order, series sorted by label
// value) so tests can pin output. Series are either updated inline
// (Counter, Gauge, Histogram) or read at scrape time from one snapshot
// (Func); pytfhed renders every counter its Stats RPC reports the second
// way, from the same snapshot the RPC returns, and serves the registry on
// the -metrics-addr HTTP listener. Nothing here imports anything beyond
// the standard library.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	fams     []*family
	byName   map[string]*family
	snapshot func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnScrape sets the snapshot the Func families read: snap runs once at the
// start of every WritePrometheus, and every Func family of that scrape
// renders from the one value it returns, so no two of them describe
// different moments.
func (r *Registry) OnScrape(snap func() any) {
	r.mu.Lock()
	r.snapshot = snap
	r.mu.Unlock()
}

// Sample is one scrape-time series: its label values, in the family's
// label order, and its value.
type Sample struct {
	Labels []string
	Value  float64
}

// Func registers a counter or gauge family (typ "counter" or "gauge")
// whose series read returns from each scrape's OnScrape snapshot.
func (r *Registry) Func(name, help, typ string, read func(snap any) []Sample, labels ...string) {
	r.register(name, help, typ, labels, nil).read = read
}

// family is one metric name: its metadata plus the labeled series.
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64          // histograms only
	read            func(any) []Sample // Func families only

	mu     sync.Mutex
	series map[string]any // joined label values → *Counter/*Gauge/*Histogram
}

func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	if name == "" || strings.ContainsAny(name, " \n\"{}") {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets,
		series: make(map[string]any)}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// seriesKey joins label values; callers must pass exactly len(labels).
func (f *family) seriesKey(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s takes %d labels, got %d", f.name, len(f.labels), len(values)))
	}
	return strings.Join(values, "\xff")
}

// Counter is a monotone cumulative count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that goes up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket is appended.
type Histogram struct {
	buckets []float64
	counts  []atomic.Int64 // len(buckets)+1, cumulative at render time
	sumBits atomic.Uint64  // float64 sum, CAS-updated
	count   atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts,
// attributing each bucket's mass to its upper bound — the standard
// histogram_quantile over-approximation. It returns the highest finite
// bound when the quantile lands in the +Inf bucket, and 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i := range h.buckets {
		cum += h.counts[i].Load()
		if cum >= rank {
			return h.buckets[i]
		}
	}
	if len(h.buckets) == 0 {
		return 0
	}
	return h.buckets[len(h.buckets)-1]
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, nil)
	c := &Counter{}
	f.series[""] = c
	return c
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil)
	g := &Gauge{}
	f.series[""] = g
	return g
}

// Histogram registers an unlabeled histogram over the given ascending
// upper bounds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil, checkBuckets(name, buckets))
	h := newHistogram(f.buckets)
	f.series[""] = h
	return h
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels, nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels, nil)}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, "histogram", labels, checkBuckets(name, buckets))}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %s needs at least one bucket", name))
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("telemetry: histogram %s buckets not ascending", name))
	}
	out := make([]float64, len(buckets))
	copy(out, buckets)
	return out
}

// CounterVec is a counter family indexed by label values.
type CounterVec struct{ f *family }

// With returns (creating if needed) the child for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	key := v.f.seriesKey(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c, ok := v.f.series[key]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	v.f.series[key] = c
	return c
}

// GaugeVec is a gauge family indexed by label values.
type GaugeVec struct{ f *family }

// With returns (creating if needed) the child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := v.f.seriesKey(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if g, ok := v.f.series[key]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	v.f.series[key] = g
	return g
}

// HistogramVec is a histogram family indexed by label values.
type HistogramVec struct{ f *family }

// With returns (creating if needed) the child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := v.f.seriesKey(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if h, ok := v.f.series[key]; ok {
		return h.(*Histogram)
	}
	h := newHistogram(v.f.buckets)
	v.f.series[key] = h
	return h
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelString renders {k="v",...} for the series key, with an extra
// le bound appended for histogram buckets (leExtra == "" omits it).
func (f *family) labelString(key, leExtra string) string {
	var parts []string
	if len(f.labels) > 0 {
		values := strings.Split(key, "\xff")
		for i, l := range f.labels {
			parts = append(parts, l+`="`+labelEscaper.Replace(values[i])+`"`)
		}
	}
	if leExtra != "" {
		parts = append(parts, `le="`+leExtra+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus takes the OnScrape snapshot, then renders every family
// in registration order with series sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	snapshot := r.snapshot
	fams := append([]*family{}, r.fams...)
	r.mu.Unlock()
	var snap any
	if snapshot != nil {
		snap = snapshot()
	}
	for _, f := range fams {
		if err := f.write(w, snap); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer, snap any) error {
	f.mu.Lock()
	metrics := make(map[string]any, len(f.series))
	for k, m := range f.series {
		metrics[k] = m
	}
	f.mu.Unlock()
	if f.read != nil {
		for _, s := range f.read(snap) {
			metrics[f.seriesKey(s.Labels)] = s.Value
		}
	}
	if len(metrics) == 0 {
		return nil
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	for _, k := range keys {
		var err error
		switch m := metrics[k].(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelString(k, ""), m.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, f.labelString(k, ""), formatFloat(m.Value()))
		case *Histogram:
			err = f.writeHistogram(w, k, m)
		case float64: // a Func sample
			if f.typ == "counter" {
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelString(k, ""), int64(m))
			} else {
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, f.labelString(k, ""), formatFloat(m))
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeHistogram(w io.Writer, key string, h *Histogram) error {
	var cum int64
	for i, bound := range h.buckets {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, f.labelString(key, formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.buckets)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, f.labelString(key, "+Inf"), cum); err != nil {
		return err
	}
	sum := math.Float64frombits(h.sumBits.Load())
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, f.labelString(key, ""), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, f.labelString(key, ""), h.count.Load())
	return err
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// growing by factor — the latency-SLO ladder helper (e.g. ExpBuckets(1,
// 2, 14) spans 1ms..8s).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
