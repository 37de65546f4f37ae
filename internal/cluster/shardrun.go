package cluster

import (
	"context"
	"fmt"
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

// ShardStepResult returns a step's exports in manifest order. A result
// answering a ShardReplay carries no exports (the coordinator retained
// them) and Level echoes the replay horizon.
type ShardStepResult struct {
	Hash    string
	Level   int
	Exports []*lwe.Sample
}

// ShardReplay rebuilds a shard's state on a new worker after a loss: the
// worker re-executes the listed steps (levels 0..Through that the shard is
// active in, with the coordinator's retained fills) and discards the
// exports, leaving the runtime ready to continue from Through+1.
type ShardReplay struct {
	Hash    string
	Through int
	Steps   []ShardStep
}

// shardingCacheEntries bounds the coordinator's sharding cache: a daemon
// serving many programs keeps only the most recently run plan × worker
// count decompositions instead of every one it has seen.
const shardingCacheEntries = 16

// workerAppError is a worker-reported evaluation failure: the connection
// is healthy, retrying elsewhere would fail identically, so the run aborts
// instead of treating the worker as lost.
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

// shardRun is the per-run routing state of Run.
type shardRun struct {
	c        *Coordinator
	s        *shard.Sharding
	inputs   []*lwe.Sample
	exported []*lwe.Sample // boundary values by export id, retained all run
	assign   []*workerConn // shard index → hosting worker (nil = needs a host)
	loads    map[*workerConn]int
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
// Lost workers are recovered by re-installing their shards on the
// least-loaded survivor and replaying through the last completed level.
func (c *Coordinator) RunPlan(p *plan.Plan, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
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
	s, err := c.sharding(p, len(workers))
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
	r := &shardRun{
		c:        c,
		s:        s,
		inputs:   inputs,
		exported: make([]*lwe.Sample, s.CutEdges),
		assign:   make([]*workerConn, len(s.Shards)),
		loads:    make(map[*workerConn]int),
		timeout:  timeout,
		ctBytes:  int64(c.ck.Params.CiphertextBytes()),
		stats:    &stats,
	}
	// Initial placement: shard i on worker i (Split makes one shard per
	// live worker).
	for i := range s.Shards {
		r.assign[i] = workers[i]
		r.loads[workers[i]]++
	}
	for i := range s.Shards {
		if err := r.ensure(i, -1); err != nil {
			return nil, err
		}
	}
	for l := range p.Levels() {
		if err := r.runLevel(l); err != nil {
			return nil, err
		}
	}

	// Route the retained outputs through the shared collector so constant
	// sentinels and aliasing match every other backend bit for bit.
	refs := p.Outputs()
	byRef := make(map[plan.Ref]*lwe.Sample, len(refs))
	for i, src := range s.Outputs {
		switch {
		case src.Input >= 0:
			byRef[refs[i]] = inputs[src.Input]
		case src.Export >= 0:
			byRef[refs[i]] = r.exported[src.Export]
		}
	}
	outs, err := exec.CollectOutputs(dim, refs, func(ref plan.Ref) *lwe.Sample { return byRef[ref] })
	if err != nil {
		return nil, err
	}
	stats.Elapsed = time.Since(start)
	settleMeters(snaps, &stats)
	c.mu.Lock()
	c.LastStat = stats
	c.totals.ShardRuns++
	c.totals.ShardHits += int64(stats.ShardHits)
	c.totals.ShardMisses += int64(stats.ShardMisses)
	c.totals.ShardReships += int64(stats.ShardReships)
	c.totals.WireBytesSent += stats.WireBytesSent
	c.totals.WireBytesRecv += stats.WireBytesRecv
	c.totals.BoundaryBytes += stats.BoundaryBytes
	c.totals.WorkersLost += int64(stats.WorkersLost)
	c.mu.Unlock()
	return outs, nil
}

// RunSharded is Run under its pre-v3 name, which the benchmark module
// (bench/) still calls.
func (c *Coordinator) RunSharded(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	return c.Run(nl, inputs)
}

// roundTrip performs one request/response exchange on a worker connection
// under a read deadline. The caller owns the connection for the duration
// (per-worker goroutines during a level, the main goroutine otherwise).
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

// lose drops a dead worker from the run and the roster; every shard it
// hosted goes back to "needs a host".
func (r *shardRun) lose(w *workerConn) {
	r.c.dropWorker(w)
	delete(r.loads, w)
	for i := range r.assign {
		if r.assign[i] == w {
			r.assign[i] = nil
		}
	}
	r.stats.WorkersLost++
}

// leastLoaded picks the live worker hosting the fewest shards.
func (r *shardRun) leastLoaded() *workerConn {
	r.c.mu.Lock()
	live := append([]*workerConn(nil), r.c.workers...)
	r.c.mu.Unlock()
	var best *workerConn
	for _, w := range live {
		if best == nil || r.loads[w] < r.loads[best] {
			best = w
		}
	}
	return best
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

// ensure makes shard i resident and caught up through level `through` on
// its assigned worker, electing a new host (least loaded survivor) as
// often as needed. through < 0 means ship only, no replay.
func (r *shardRun) ensure(i, through int) error {
	sh := r.s.Shards[i]
	for {
		w := r.assign[i]
		if w == nil {
			w = r.leastLoaded()
			if w == nil {
				return fmt.Errorf("cluster: no workers left to host shard %d: %w", i, ErrWorkerLost)
			}
			r.assign[i] = w
			r.loads[w]++
		}
		err := r.install(w, i, sh, through)
		if err == nil {
			return nil
		}
		if app, ok := err.(*workerAppError); ok {
			return app
		}
		r.lose(w)
	}
}

// install ships shard sh to w if not cached there and replays it through
// the given level using retained fills.
func (r *shardRun) install(w *workerConn, idx int, sh *shard.Shard, through int) error {
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
	if through >= 0 {
		r.stats.ShardReships++
	}
	r.statMu.Unlock()
	if !rep.ShardReady.Cached {
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
	}
	if through < 0 {
		return nil
	}
	replay := &ShardReplay{Hash: sh.Hash, Through: through}
	for lv := 0; lv <= through; lv++ {
		if len(sh.Levels[lv]) == 0 {
			continue
		}
		replay.Steps = append(replay.Steps, ShardStep{Hash: sh.Hash, Level: lv, Fills: r.fillsFor(idx, lv)})
	}
	// The replay deadline scales with the number of re-executed levels:
	// rebuilding a deep prefix legitimately takes many level-times.
	rep, err = roundTrip(w, Message{Replay: replay}, r.timeout*time.Duration(len(replay.Steps)+1))
	if err != nil {
		return err
	}
	if rep.Error != "" {
		return &workerAppError{msg: rep.Error}
	}
	if rep.StepResult == nil || rep.StepResult.Hash != sh.Hash {
		return fmt.Errorf("cluster: worker %s: malformed replay reply", w.conn.RemoteAddr())
	}
	return nil
}

// step drives one level of one shard and returns its exports.
func (r *shardRun) step(w *workerConn, i, level int) ([]*lwe.Sample, error) {
	sh := r.s.Shards[i]
	fills := r.fillsFor(i, level)
	r.statMu.Lock()
	r.stats.SamplesSent += int64(len(fills))
	r.stats.BytesSent += r.ctBytes * int64(len(fills))
	r.stats.BoundaryBytes += r.ctBytes * int64(len(fills))
	r.statMu.Unlock()
	rep, err := roundTrip(w, Message{Step: &ShardStep{Hash: sh.Hash, Level: level, Fills: fills}}, r.timeout)
	if err != nil {
		return nil, err
	}
	if rep.Error != "" {
		return nil, &workerAppError{msg: rep.Error}
	}
	res := rep.StepResult
	if res == nil || res.Hash != sh.Hash || res.Level != level || len(res.Exports) != len(sh.Exports[level]) {
		return nil, fmt.Errorf("cluster: worker %s: malformed step result for shard %d level %d", w.conn.RemoteAddr(), i, level)
	}
	r.statMu.Lock()
	r.stats.SamplesReceived += int64(len(res.Exports))
	r.stats.BoundaryBytes += r.ctBytes * int64(len(res.Exports))
	r.statMu.Unlock()
	return res.Exports, nil
}

// runLevel drives one global plan level across every shard active in it,
// re-hosting and replaying the shards of any worker lost along the way.
func (r *shardRun) runLevel(l int) error {
	var pending []int
	for i, sh := range r.s.Shards {
		if len(sh.Levels[l]) > 0 {
			pending = append(pending, i)
		}
	}
	for len(pending) > 0 {
		byWorker := make(map[*workerConn][]int)
		for _, i := range pending {
			w := r.assign[i]
			byWorker[w] = append(byWorker[w], i)
		}
		type levelReply struct {
			w      *workerConn
			done   map[int][]*lwe.Sample
			failed []int // shards not completed because the worker died
			err    error
		}
		ch := make(chan levelReply, len(byWorker))
		for w, list := range byWorker {
			// One goroutine per worker: a connection carries one exchange
			// at a time, shards sharing a worker run back to back.
			go func(w *workerConn, list []int) {
				done := make(map[int][]*lwe.Sample, len(list))
				for k, i := range list {
					exports, err := r.step(w, i, l)
					if err != nil {
						if app, ok := err.(*workerAppError); ok {
							ch <- levelReply{w: w, done: done, err: app}
						} else {
							ch <- levelReply{w: w, done: done, failed: list[k:], err: err}
						}
						return
					}
					done[i] = exports
				}
				ch <- levelReply{w: w, done: done}
			}(w, list)
		}
		var next []int
		var appErr error
		var lost []*workerConn
		redo := make(map[int]bool)
		for range byWorker {
			rep := <-ch
			for i, exports := range rep.done {
				for k, id := range r.s.ExportIDs[i][l] {
					r.exported[id] = exports[k]
				}
			}
			if len(rep.failed) > 0 {
				lost = append(lost, rep.w)
				next = append(next, rep.failed...)
				for _, i := range rep.failed {
					redo[i] = true
				}
			} else if rep.err != nil {
				appErr = rep.err
			}
		}
		if appErr != nil {
			return appErr
		}
		for _, w := range lost {
			r.lose(w)
		}
		// Re-host every orphaned shard. Shards that already finished this
		// level (or idle through it) replay through l — their exports are
		// retained, only their runtime state needs rebuilding. Shards still
		// owed this level replay through l-1 and then rejoin the loop.
		for i := range r.assign {
			if r.assign[i] != nil {
				continue
			}
			through := l
			if redo[i] {
				through = l - 1
			}
			if err := r.ensure(i, through); err != nil {
				return err
			}
		}
		pending = next
	}
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

func (h *shardHost) replay(rp *ShardReplay) Message {
	ent := h.cached(rp.Hash)
	if ent == nil {
		return Message{Error: fmt.Sprintf("shard %.16s… not resident for replay", rp.Hash)}
	}
	ent.rt.Reset()
	for i := range rp.Steps {
		if _, err := h.apply(ent, &rp.Steps[i]); err != nil {
			return Message{Error: fmt.Sprintf("replay level %d: %v", rp.Steps[i].Level, err)}
		}
	}
	return Message{StepResult: &ShardStepResult{Hash: rp.Hash, Level: rp.Through}}
}
