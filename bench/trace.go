package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the layer boundary. Parent is the index of the span that caused it (-1 for
// a root); spans of one request share Req.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
	Req    int
	Lane   int // display row in the trace viewer: one per client or process
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced pass runs the same code.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(name string, parent, req, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Req: req, Lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// add records a span measured elsewhere (the compile child reports its
// stages with absolute times).
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

// wrap times fn as a child span of parent.
func (r *recorder) wrap(name string, parent, req, lane int, fn func()) {
	id := r.begin(name, parent, req, lane)
	fn()
	r.end(id)
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// durations returns the duration of every span called name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing, Perfetto):
// one complete event per span, self time and parent in args.
func (r *recorder) writeChrome(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "parent": s.Parent, "req": s.Req, "self_us": float64(self[i].Nanoseconds()) / 1e3},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
