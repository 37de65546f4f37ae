package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/plan"
	"pytfhe/internal/qos"
	"pytfhe/internal/shard"
	"pytfhe/internal/tfhe/lwe"
)

// This file is the run path: the compiled plan is cut into per-worker
// shards (internal/shard), each shipped once and cached on its worker keyed
// by content hash. Per run the coordinator routes only input and
// cross-shard boundary ciphertexts — O(cut edges) traffic per level, not
// O(gates).

// ShardInit asks a worker to activate a shard for the coming run,
// resetting its runtime if resident. The worker answers ShardReady; a
// Cached=false answer makes the coordinator follow up with ShardData.
type ShardInit struct {
	PlanHash string
	Hash     string
}

// ShardReady reports shard residency after a ShardInit or ShardData.
type ShardReady struct {
	Hash   string
	Cached bool
}

// SlotSample installs one ciphertext into a shard slot (the worker copies
// it).
type SlotSample struct {
	Slot int32
	Val  *lwe.Sample
}

// ShardStep drives one global plan level of one shard: the router's fills
// go in, the level's boundary exports come back in a ShardStepResult.
type ShardStep struct {
	Hash  string
	Level int
	Fills []SlotSample
}

// ShardStepResult returns a step's exports in manifest order.
type ShardStepResult struct {
	Hash    string
	Level   int
	Exports []*lwe.Sample
}

// shardingCacheEntries bounds the coordinator's sharding cache: a daemon
// serving many programs keeps only the most recently run plan × worker
// count decompositions instead of every one it has seen.
const shardingCacheEntries = 16

// workerAppError is a worker-reported evaluation failure: the connection
// is healthy, rerunning on the survivors would fail identically, so the
// run aborts instead of treating the worker as lost.
type workerAppError struct{ msg string }

func (e *workerAppError) Error() string { return "cluster: worker: " + e.msg }

// sharding returns the decomposition of p into n shards, splitting and
// verifying it on first use. The cache is keyed by the plan's content
// fingerprint — the key the workers' shard caches use — and the worker
// count, so equal plans share an entry whatever their address, and a
// different live-worker count splits again.
func (c *Coordinator) sharding(p *plan.Plan, n int) (*shard.Sharding, error) {
	key := fmt.Sprintf("%s/%d", p.Fingerprint(), n)
	if v, ok := c.plans.Get(key); ok {
		return v.(*shard.Sharding), nil
	}
	s, err := shard.Split(p, n)
	if err != nil {
		return nil, err
	}
	// The decomposition is verified once per cache entry: structural
	// soundness plus a cleartext simulation of the routed execution
	// against the plan (see shard.Verify). Cheap next to one FHE gate.
	if _, err := shard.Verify(p, s); err != nil {
		return nil, err
	}
	c.plans.Add(key, s)
	return s, nil
}

// shardRun is one attempt at a run: shard i of s runs on workers[i].
type shardRun struct {
	s        *shard.Sharding
	workers  []*workerConn
	inputs   []*lwe.Sample
	exported []*lwe.Sample // boundary values by export id, retained all run
	recovery bool          // a rerun after a loss: installs count as reships
	timeout  time.Duration
	ctBytes  int64
	statMu   sync.Mutex
	stats    *Stats
}

// Run compiles the netlist and executes it with RunPlan; it implements
// the backend.Backend contract. The compile ties the run to the netlist's
// content, so a netlist edited in place runs as edited, and equal
// netlists share the coordinator's sharding and the workers' shard caches.
func (c *Coordinator) Run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	p, err := plan.Compile(nl)
	if err != nil {
		return nil, err
	}
	return c.RunPlan(p, inputs)
}

// RunPlan executes a compiled plan by sharded replay across the connected
// workers. The first run of a plan at a worker count splits, verifies and
// ships it; later runs of an equal plan at the same count reuse the
// workers' shard caches and stream only input and boundary ciphertexts.
// A worker lost mid-run is dropped and the plan runs again from level 0,
// sharded over the survivors.
func (c *Coordinator) RunPlan(p *plan.Plan, inputs []*lwe.Sample) (outs []*lwe.Sample, err error) {
	if c.ck == nil {
		return nil, fmt.Errorf("%w: run before SetKey", ErrHandshake)
	}
	dim := c.ck.Params.LWEDimension
	if err := exec.CheckRawInputs(inputs, p.NumInputs, dim); err != nil {
		return nil, err
	}
	workers, totalSlots, timeout, err := c.roster()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	snaps := c.snapMeters()
	ps := p.Stats()
	stats := Stats{
		Workers:    len(workers),
		Slots:      totalSlots,
		Levels:     ps.Levels,
		Gates:      ps.ExecGates,
		Bootstraps: ps.ExecBootstraps,
	}
	// Every exit from here on, a failed run's too, settles into the totals.
	defer func() { c.settleRun(snaps, &stats, start, err == nil) }()
	// Every failed attempt drops at least one worker, so a run makes at
	// most as many attempts as it started with workers.
	var r *shardRun
	for {
		s, err := c.sharding(p, len(workers))
		if err != nil {
			return nil, err
		}
		r = &shardRun{
			s:        s,
			workers:  workers,
			inputs:   inputs,
			exported: make([]*lwe.Sample, s.CutEdges),
			recovery: stats.WorkersLost > 0,
			timeout:  timeout,
			ctBytes:  int64(c.ck.Params.CiphertextBytes()),
			stats:    &stats,
		}
		lost, err := r.run(len(p.Levels()))
		for _, w := range lost {
			c.dropWorker(w)
			workers = slices.DeleteFunc(workers, func(x *workerConn) bool { return x == w })
		}
		stats.WorkersLost += len(lost)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrWorkerLost) {
			return nil, err
		}
		if len(workers) == 0 {
			return nil, fmt.Errorf("cluster: no workers left: %w", err)
		}
	}

	// Route the retained outputs through the shared collector so constant
	// sentinels and aliasing match every other backend bit for bit.
	refs := p.Outputs()
	byRef := make(map[plan.Ref]*lwe.Sample, len(refs))
	for i, src := range r.s.Outputs {
		switch {
		case src.Input >= 0:
			byRef[refs[i]] = inputs[src.Input]
		case src.Export >= 0:
			byRef[refs[i]] = r.exported[src.Export]
		}
	}
	return exec.CollectOutputs(dim, refs, func(ref plan.Ref) *lwe.Sample { return byRef[ref] })
}

// settleRun adds a run's wire bytes and lost workers to the totals, whether
// it completed or not; a completed run also becomes LastStat and adds its
// shard counts.
func (c *Coordinator) settleRun(snaps []meterSnap, stats *Stats, start time.Time, completed bool) {
	stats.Elapsed = time.Since(start)
	settleMeters(snaps, stats)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totals.WireBytesSent += stats.WireBytesSent
	c.totals.WireBytesRecv += stats.WireBytesRecv
	c.totals.WorkersLost += int64(stats.WorkersLost)
	if !completed {
		return
	}
	c.LastStat = *stats
	c.totals.ShardRuns++
	c.totals.ShardHits += int64(stats.ShardHits)
	c.totals.ShardMisses += int64(stats.ShardMisses)
	c.totals.ShardReships += int64(stats.ShardReships)
	c.totals.BoundaryBytes += stats.BoundaryBytes
}

// RunSharded is Run under its pre-v3 name, which the benchmark module
// (bench/) still calls.
func (c *Coordinator) RunSharded(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	return c.Run(nl, inputs)
}

// roundTrip performs one request/response exchange on a worker connection
// under a read deadline. The caller owns the connection for the duration
// (one goroutine per shard during a phase of a run).
func roundTrip(w *workerConn, msg Message, timeout time.Duration) (Message, error) {
	if err := w.enc.Encode(msg); err != nil {
		return Message{}, fmt.Errorf("cluster: send to %s: %w", w.conn.RemoteAddr(), err)
	}
	return receive(w, timeout)
}

// receive decodes the next message from a worker connection under a read
// deadline.
func receive(w *workerConn, timeout time.Duration) (Message, error) {
	if err := w.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Message{}, fmt.Errorf("cluster: deadline on %s: %w", w.conn.RemoteAddr(), err)
	}
	var rep Message
	err := w.dec.Decode(&rep)
	if cerr := w.conn.SetReadDeadline(time.Time{}); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return Message{}, fmt.Errorf("cluster: receive from %s: %w", w.conn.RemoteAddr(), err)
	}
	return rep, nil
}

// run installs every shard, then drives the plan's levels. It stops after
// the first phase in which a worker failed and returns the workers lost in
// it, with an error wrapping ErrWorkerLost unless a worker also reported
// an application error.
func (r *shardRun) run(levels int) ([]*workerConn, error) {
	all := make([]int, len(r.s.Shards))
	for i := range all {
		all[i] = i
	}
	if lost, err := r.each(all, r.install); err != nil {
		return lost, err
	}
	for l := range levels {
		var active []int
		for i, sh := range r.s.Shards {
			if len(sh.Levels[l]) > 0 {
				active = append(active, i)
			}
		}
		if lost, err := r.each(active, func(i int) error { return r.step(i, l) }); err != nil {
			return lost, err
		}
	}
	return nil, nil
}

// each runs fn on the listed shards concurrently, one goroutine per shard
// and so per worker, and waits for all of them, so every surviving
// connection is idle when it returns. A Message{Error} reply is an
// application error: the connection is healthy and a rerun would fail
// alike, so it is returned as is. Any other failure — a send or receive
// error, a missed deadline, a reply that breaks the protocol — loses the
// shard's worker.
func (r *shardRun) each(shards []int, fn func(i int) error) (lost []*workerConn, err error) {
	errs := make([]error, len(r.workers))
	var wg sync.WaitGroup
	for _, i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	var appErr, lostErr error
	for i, e := range errs {
		var app *workerAppError
		switch {
		case e == nil:
		case errors.As(e, &app):
			appErr = cmp.Or(appErr, e)
		default:
			lost = append(lost, r.workers[i])
			lostErr = cmp.Or(lostErr, e)
		}
	}
	if appErr != nil {
		return lost, appErr
	}
	if lostErr != nil {
		return lost, fmt.Errorf("%w: %w", ErrWorkerLost, lostErr)
	}
	return nil, nil
}

// fillsFor materializes the router manifest for one shard level: input
// fills read the run inputs, boundary fills read the retained exports (all
// strictly earlier levels, so they are present by construction).
func (r *shardRun) fillsFor(i, level int) []SlotSample {
	fs := r.s.Fills[i][level]
	if len(fs) == 0 {
		return nil
	}
	out := make([]SlotSample, len(fs))
	for k, f := range fs {
		v := &out[k]
		v.Slot = f.Slot
		if f.Input >= 0 {
			v.Val = r.inputs[f.Input]
		} else {
			v.Val = r.exported[f.Export]
		}
	}
	return out
}

// install makes shard i resident on its worker, shipping it if the
// worker's cache lacks it.
func (r *shardRun) install(i int) error {
	w, sh := r.workers[i], r.s.Shards[i]
	rep, err := roundTrip(w, Message{ShardInit: &ShardInit{PlanHash: sh.PlanHash, Hash: sh.Hash}}, r.timeout)
	if err != nil {
		return err
	}
	if rep.Error != "" {
		return &workerAppError{msg: rep.Error}
	}
	if rep.ShardReady == nil || rep.ShardReady.Hash != sh.Hash {
		return fmt.Errorf("cluster: worker %s: malformed shard-init reply", w.conn.RemoteAddr())
	}
	r.statMu.Lock()
	if rep.ShardReady.Cached {
		r.stats.ShardHits++
	} else {
		r.stats.ShardMisses++
	}
	if r.recovery {
		r.stats.ShardReships++
	}
	r.statMu.Unlock()
	if rep.ShardReady.Cached {
		return nil
	}
	w0 := w.meter.BytesWritten()
	rep, err = roundTrip(w, Message{ShardData: sh}, r.timeout)
	if err != nil {
		return err
	}
	if rep.Error != "" {
		return &workerAppError{msg: rep.Error}
	}
	if rep.ShardReady == nil || !rep.ShardReady.Cached {
		return fmt.Errorf("cluster: worker %s: shard %s not resident after shipment", w.conn.RemoteAddr(), sh.Hash[:16])
	}
	r.statMu.Lock()
	r.stats.ShardBytesShipped += w.meter.BytesWritten() - w0
	r.statMu.Unlock()
	return nil
}

// step drives one level of shard i and retains its exports. Shards export
// disjoint ids, so concurrent steps write disjoint entries.
func (r *shardRun) step(i, level int) error {
	w, sh := r.workers[i], r.s.Shards[i]
	fills := r.fillsFor(i, level)
	r.statMu.Lock()
	r.stats.SamplesSent += int64(len(fills))
	r.stats.BytesSent += r.ctBytes * int64(len(fills))
	r.stats.BoundaryBytes += r.ctBytes * int64(len(fills))
	r.statMu.Unlock()
	rep, err := roundTrip(w, Message{Step: &ShardStep{Hash: sh.Hash, Level: level, Fills: fills}}, r.timeout)
	if err != nil {
		return err
	}
	if rep.Error != "" {
		return &workerAppError{msg: rep.Error}
	}
	res := rep.StepResult
	if res == nil || res.Hash != sh.Hash || res.Level != level || len(res.Exports) != len(sh.Exports[level]) {
		return fmt.Errorf("cluster: worker %s: malformed step result for shard %d level %d", w.conn.RemoteAddr(), i, level)
	}
	for k, id := range r.s.ExportIDs[i][level] {
		r.exported[id] = res.Exports[k]
	}
	r.statMu.Lock()
	r.stats.SamplesReceived += int64(len(res.Exports))
	r.stats.BoundaryBytes += r.ctBytes * int64(len(res.Exports))
	r.statMu.Unlock()
	return nil
}

// --- worker side ---

// shardHost is a worker's per-connection state: the shard cache and the
// executor every shard level runs on.
type shardHost struct {
	shards *qos.LRU // hash → *shardEntry
	ex     *backend.Shared
	key    *backend.SharedKey
	dim    int
}

// shardEntry pairs a cached shard with its value table. A run starts
// with rt.Reset, so a slot the run has not written or filled reads as
// unwritten.
type shardEntry struct {
	sh *shard.Shard
	rt *plan.Runtime
}

// cached returns the resident shard with the given hash, or nil.
func (h *shardHost) cached(hash string) *shardEntry {
	v, _ := h.shards.Get(hash)
	ent, _ := v.(*shardEntry)
	return ent
}

func (h *shardHost) init(init *ShardInit) Message {
	ent := h.cached(init.Hash)
	if ent == nil {
		return Message{ShardReady: &ShardReady{Hash: init.Hash, Cached: false}}
	}
	ent.rt.Reset()
	return Message{ShardReady: &ShardReady{Hash: init.Hash, Cached: true}}
}

func (h *shardHost) install(sh *shard.Shard) Message {
	// The shard came off a socket: its counts size the runtime's value
	// table, its refs index it, and the scheduler relies on its levels
	// being independent, so check all three before any of that happens.
	if err := sh.Validate(); err != nil {
		return Message{Error: err.Error()}
	}
	rt := plan.NewRuntime(h.dim)
	rt.Shape(0, sh.Slots)
	h.shards.Add(sh.Hash, &shardEntry{sh: sh, rt: rt})
	return Message{ShardReady: &ShardReady{Hash: sh.Hash, Cached: true}}
}

// apply installs a step's fills, runs the level on the executor and
// returns the level's exports in manifest order.
func (h *shardHost) apply(ent *shardEntry, st *ShardStep) ([]*lwe.Sample, error) {
	sh := ent.sh
	if st.Level < 0 || st.Level >= len(sh.Levels) {
		return nil, fmt.Errorf("shard %d: level %d outside plan (%d levels)", sh.Index, st.Level, len(sh.Levels))
	}
	for _, f := range st.Fills {
		if err := ent.rt.Fill(int(f.Slot), f.Val); err != nil {
			return nil, fmt.Errorf("shard %d: %w", sh.Index, err)
		}
	}
	if _, err := h.ex.Run(context.Background(), h.key, sh.Levels[st.Level:st.Level+1], ent.rt); err != nil {
		return nil, fmt.Errorf("shard %d: %w", sh.Index, err)
	}
	exp := sh.Exports[st.Level]
	outs := make([]*lwe.Sample, len(exp))
	for i, ref := range exp {
		if outs[i] = ent.rt.Value(ref); outs[i] == nil {
			return nil, fmt.Errorf("shard %d: level %d exports unwritten slot %d", sh.Index, st.Level, ref)
		}
	}
	return outs, nil
}

func (h *shardHost) step(st *ShardStep) Message {
	ent := h.cached(st.Hash)
	if ent == nil {
		return Message{Error: fmt.Sprintf("shard %.16s… not resident (evicted? raise -shard-cache)", st.Hash)}
	}
	exports, err := h.apply(ent, st)
	if err != nil {
		return Message{Error: err.Error()}
	}
	return Message{StepResult: &ShardStepResult{Hash: st.Hash, Level: st.Level, Exports: exports}}
}
