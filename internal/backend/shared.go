package backend

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pytfhe/internal/plan"
	"pytfhe/internal/qos"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// ErrExecutorClosed is returned by Shared.Run and Submit once Close has
// been called; in-flight runs are failed with it too.
var ErrExecutorClosed = errors.New("backend: shared executor closed")

// ErrKeyReleased is returned by Run and Submit for a key handle that has
// been released with ReleaseKey (the last session under the key closed).
var ErrKeyReleased = errors.New("backend: cloud key released")

// Shared is the multi-tenant plan scheduler: one persistent worker set that
// replays compiled plans from any number of concurrent Submit calls, over
// any number of cloud keys — the serving-layer analogue of the paper
// replaying a captured CUDA Graph per batch. A cluster worker runs its
// shard levels on it too, through Run. Nothing is scheduled per gate: a
// run is a list of levels over one plan.Runtime, and what the workers pop
// is a slice of one level: the level is cut into one part per worker
// (plan.Cut, equal bootstrap counts), and each part into slices of at most
// one kernel batch of instructions so that no tenant holds a worker for
// longer than one dispatch. The slice that finishes a level queues the
// next one; levels are the only synchronization a plan needs.
//
// Scheduling is two-level. Each tenant (cloud-key registration) owns a
// FIFO of its runs' ready slices; across tenants a weighted start-time
// fair-queuing picker (qos.Fair) interleaves service in proportion to
// configured weights, so a hot tenant flooding wide programs cannot starve
// a light one. Every evaluation pytfhed serves locally goes through this
// queue, so weights and pick counts describe all of its traffic.
type Shared struct {
	workers int
	batch   int
	q       *qos.Fair[sharedTask]
	wg      sync.WaitGroup
	busy    atomic.Int32  // workers inside an evaluation round
	seq     atomic.Uint64 // arrival order of queued tasks

	mu      sync.Mutex
	closed  bool
	runs    map[*sharedRun]struct{}
	keySeq  int64
	free    map[int][]*plan.Runtime // idle runtimes by LWE dimension
	arenaHW int                     // peak arena occupancy over returned runtimes

	// Cumulative counters since construction.
	instrs    atomic.Int64
	boots     atomic.Int64
	luts      atomic.Int64
	busyNs    atomic.Int64
	submits   atomic.Int64
	keysFreed atomic.Int64
	batches   atomic.Int64
	batched   atomic.Int64
	crossRun  atomic.Int64 // batches whose members spanned ≥2 runs
}

// SharedKey is a cloud key registered with a Shared executor. It carries
// the per-worker engines for the key (engines are not safe to share), so
// registering the same key once per tenant session (rather than per
// request) is what makes key upload a session-scoped cost — and dropping
// the handle after ReleaseKey is all it takes to free them: the executor
// keeps no per-key state of its own. The key doubles as the executor's
// tenant identity: fairness and pick accounting are per SharedKey.
type SharedKey struct {
	owner    *Shared
	id       int64
	ck       *boot.CloudKey
	released atomic.Bool
	// interps[w] is touched by worker w alone, built on its first task
	// under the key.
	interps []*plan.Interp
}

// ID exposes the executor-local tenant id the key registered under (the
// join key for SharedStats.TenantPicks/TenantQueued).
func (k *SharedKey) ID() int64 { return k.id }

// NewShared starts a shared executor with the given worker count (minimum
// 1) that groups up to batch bootstrapped instructions of one tenant —
// across its concurrent requests — per kernel dispatch (batch <= 1:
// unbatched). It owns its goroutines until Close.
func NewShared(workers, batch int) *Shared {
	if workers < 1 {
		workers = 1
	}
	if batch < 1 {
		batch = 1
	}
	s := &Shared{
		workers: workers,
		batch:   batch,
		q:       qos.NewFair[sharedTask](func(a, b sharedTask) bool { return a.seq < b.seq }),
		runs:    make(map[*sharedRun]struct{}),
		free:    make(map[int][]*plan.Runtime),
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s
}

// RegisterKey makes a cloud key available to the worker set and returns
// the handle Run and Submit require. Engines for the key are created
// lazily, one per worker, on first use.
func (s *Shared) RegisterKey(ck *boot.CloudKey) (*SharedKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrExecutorClosed
	}
	s.keySeq++
	return &SharedKey{owner: s, id: s.keySeq, ck: ck, interps: make([]*plan.Interp, s.workers)}, nil
}

// SetTenantWeight sets the key's fair-scheduling service share (default
// 1; weights are relative, so weight 2 receives twice the picks of
// weight 1 under contention).
func (s *Shared) SetTenantWeight(k *SharedKey, w float64) {
	if k == nil || k.owner != s {
		return
	}
	s.q.SetWeight(k.id, w)
}

// ReleaseKey drops a key registration: the lifecycle hook for "the last
// session under this cloud key closed". Subsequent runs with the
// handle fail with ErrKeyReleased and the fair scheduler forgets the
// tenant. In-flight runs under the key are unaffected (the release check
// is at Run, not per task).
func (s *Shared) ReleaseKey(k *SharedKey) {
	if k == nil || k.owner != s || !k.released.CompareAndSwap(false, true) {
		return
	}
	s.keysFreed.Add(1)
	s.q.Forget(k.id)
}

// SharedStats is a snapshot of the executor's cumulative counters.
type SharedStats struct {
	Workers    int
	QueueDepth int           // level slices currently ready and waiting
	InFlight   int           // runs currently executing
	Gates      int64         // plan instructions executed since construction
	Bootstraps int64         // bootstrapped instructions among those
	LUTs       int64         // multi-input LUT instructions among those (each one programmable bootstrap)
	Submits    int64         // runs accepted (Run calls, Submit's included)
	WorkerBusy time.Duration // cumulative evaluation time across workers

	// Per-tenant fairness accounting, keyed by SharedKey.ID.
	TenantPicks  map[int64]int64 // scheduler picks (level slices served) per tenant
	TenantQueued map[int64]int   // level slices queued per tenant
	KeysReleased int64           // ReleaseKey calls honored

	// ArenaHighWater is the most ciphertexts any one run's arena held.
	ArenaHighWater int

	// Batch occupancy (zero at batch <= 1).
	BatchSize         int   // configured batch limit
	Batches           int64 // batched bootstrap dispatches
	BatchedBootstraps int64 // bootstrapped instructions covered by those dispatches
	CrossRunBatches   int64 // batches spanning ≥2 concurrent runs
}

// AvgBatchFill is the average number of bootstrapped instructions per
// batched dispatch, or 0 when no batches ran.
func (st SharedStats) AvgBatchFill() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.BatchedBootstraps) / float64(st.Batches)
}

// BootstrapsPerSec is the executor's cumulative executed-bootstrap
// throughput per busy worker-second — the figure of merit the paper
// reports (an earlier revision mislabeled it GatesPerSec).
func (st SharedStats) BootstrapsPerSec() float64 {
	if st.WorkerBusy <= 0 {
		return 0
	}
	return float64(st.Bootstraps) / st.WorkerBusy.Seconds() * float64(st.Workers)
}

// GatesPerSec is the executor's cumulative executed-instruction throughput
// per busy worker-second, free gates included.
func (st SharedStats) GatesPerSec() float64 {
	if st.WorkerBusy <= 0 {
		return 0
	}
	return float64(st.Gates) / st.WorkerBusy.Seconds() * float64(st.Workers)
}

// Stats returns a snapshot of the executor counters.
func (s *Shared) Stats() SharedStats {
	snap := s.q.Snapshot()
	picks := make(map[int64]int64, len(snap))
	queued := make(map[int64]int, len(snap))
	depth := 0
	for id, ts := range snap {
		picks[id] = ts.Picks
		queued[id] = ts.Queued
		depth += ts.Queued
	}
	s.mu.Lock()
	inflight, arenaHW := len(s.runs), s.arenaHW
	s.mu.Unlock()
	return SharedStats{
		Workers:           s.workers,
		QueueDepth:        depth,
		InFlight:          inflight,
		Gates:             s.instrs.Load(),
		Bootstraps:        s.boots.Load(),
		LUTs:              s.luts.Load(),
		Submits:           s.submits.Load(),
		WorkerBusy:        time.Duration(s.busyNs.Load()),
		TenantPicks:       picks,
		TenantQueued:      queued,
		KeysReleased:      s.keysFreed.Load(),
		ArenaHighWater:    arenaHW,
		BatchSize:         s.batch,
		Batches:           s.batches.Load(),
		BatchedBootstraps: s.batched.Load(),
		CrossRunBatches:   s.crossRun.Load(),
	}
}

// Close shuts the worker set down. In-flight runs fail with
// ErrExecutorClosed; Close blocks until every worker has exited.
func (s *Shared) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	runs := make([]*sharedRun, 0, len(s.runs))
	for r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	for _, r := range runs {
		r.finish(ErrExecutorClosed)
	}
	s.q.Finish()
	s.wg.Wait()
}

// RunCounts is one run's share of the worker set, as Run and Submit
// report it: a round's busy time and dispatches go to the run whose slice
// the worker popped, and the bootstraps a topped-up slice adds to a batch
// go to the run that owns that slice.
type RunCounts struct {
	WorkerBusy        time.Duration // rounds begun on one of the run's slices
	QueueWait         time.Duration // summed over the run's slices: pop − push
	Batches           int64         // batched dispatches of those rounds
	BatchedBootstraps int64         // the run's bootstraps those dispatches covered
}

// sharedRun is one Run: its levels over a runtime, the level it is on,
// the latch that tells Run when the runtime is quiescent, and its
// RunCounts.
type sharedRun struct {
	key    *SharedKey
	levels [][]plan.Instr
	rt     *plan.Runtime

	busyNs, waitNs, batches, batched atomic.Int64

	// level is the index of the level currently queued; pending counts its
	// slices not yet evaluated. Only the worker that takes pending to zero
	// advances level, and the queue's mutex orders that write before any
	// reader of the next level's tasks.
	level   int
	pending atomic.Int32

	mu      sync.Mutex
	busy    int  // workers currently evaluating a slice of this run
	done    bool // finished, failed or aborted: no worker may enter
	err     error
	quiet   bool          // done with busy == 0: drained is closed
	drained chan struct{} // closed once no worker can touch rt again
}

// enter claims the run for one slice evaluation; false once it is done.
func (r *sharedRun) enter() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return false
	}
	r.busy++
	return true
}

// exit ends a claim taken with enter.
func (r *sharedRun) exit() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.busy--
	r.settle()
}

// finish marks the run done with err (nil: every level evaluated); the
// first call wins.
func (r *sharedRun) finish(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		r.done, r.err = true, err
	}
	r.settle()
}

// settle closes drained the moment the run is done and no worker is inside
// it; r.mu must be held.
func (r *sharedRun) settle() {
	if r.done && r.busy == 0 && !r.quiet {
		r.quiet = true
		close(r.drained)
	}
}

// Submit replays p under the given key: Run over a pooled runtime bound to
// the inputs, then the outputs collected. It is safe to call from any
// number of goroutines; the inputs are not modified and the caller keeps
// ownership of them.
func (s *Shared) Submit(ctx context.Context, key *SharedKey, p *plan.Plan, inputs []*lwe.Sample) ([]*lwe.Sample, RunCounts, error) {
	if err := s.check(key); err != nil {
		return nil, RunCounts{}, err
	}
	dim := key.ck.Params.LWEDimension
	rt := s.getRuntime(dim)
	defer s.putRuntime(dim, rt)
	if err := rt.Bind(p, inputs); err != nil {
		return nil, RunCounts{}, err
	}
	defer rt.Unbind()
	rc, err := s.Run(ctx, key, p.Levels(), rt)
	if err != nil {
		return nil, RunCounts{}, err
	}
	outs, err := rt.Collect(p)
	if err != nil {
		return nil, RunCounts{}, err
	}
	return outs, rc, nil
}

// Run evaluates levels in order over the caller's runtime on the shared
// worker set under the given key, blocking until the last level is done,
// the context is done, or the executor closes, and reports the run's share
// of the worker set. However a run ends, Run returns only after every
// worker has left rt. A released key fails with ErrKeyReleased.
func (s *Shared) Run(ctx context.Context, key *SharedKey, levels [][]plan.Instr, rt *plan.Runtime) (RunCounts, error) {
	if err := s.check(key); err != nil {
		return RunCounts{}, err
	}
	r := &sharedRun{key: key, levels: levels, rt: rt, drained: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return RunCounts{}, ErrExecutorClosed
	}
	s.runs[r] = struct{}{}
	s.mu.Unlock()
	s.submits.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.runs, r)
		s.mu.Unlock()
		if key.released.Load() {
			// Released mid-run: the run's pushes re-created the tenant.
			s.q.Forget(key.id)
		}
	}()

	s.advance(r, 0)
	select {
	case <-r.drained:
	case <-ctx.Done():
		// Workers drop this run's queued slices from here on; the ones
		// already inside it finish their dispatch first.
		r.finish(ctx.Err())
		<-r.drained
	}
	if r.err != nil {
		return RunCounts{}, r.err
	}
	return RunCounts{
		WorkerBusy:        time.Duration(r.busyNs.Load()),
		QueueWait:         time.Duration(r.waitNs.Load()),
		Batches:           r.batches.Load(),
		BatchedBootstraps: r.batched.Load(),
	}, nil
}

// check admits a key: registered here and not released.
func (s *Shared) check(key *SharedKey) error {
	if key == nil || key.owner != s {
		return fmt.Errorf("backend: key not registered with this executor")
	}
	if key.released.Load() {
		return ErrKeyReleased
	}
	return nil
}

// getRuntime takes an idle runtime of the given dimension from the pool, or
// makes one. Runtimes hold only ciphertext buffers, so any plan under any
// key of that dimension can use any of them; the pool never outgrows the
// largest number of concurrent Submits (the daemon's admission slots).
func (s *Shared) getRuntime(dim int) *plan.Runtime {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free[dim]); n > 0 {
		rt := s.free[dim][n-1]
		s.free[dim] = s.free[dim][:n-1]
		return rt
	}
	return plan.NewRuntime(dim)
}

func (s *Shared) putRuntime(dim int, rt *plan.Runtime) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arenaHW = max(s.arenaHW, rt.HighWater())
	s.free[dim] = append(s.free[dim], rt)
}

// slices cuts a level into one part per worker (plan.Cut), then each part
// into slices of at most one kernel batch: a level of up to a batch of
// instructions still spreads over every worker it can keep busy.
func (s *Shared) slices(level []plan.Instr) [][]plan.Instr {
	var out [][]plan.Instr
	for _, part := range plan.Cut(level, s.workers) {
		for len(part) > 0 {
			c := min(len(part), s.batch)
			out = append(out, part[:c:c])
			part = part[c:]
		}
	}
	return out
}

// advance queues the slices of the first level of r at or after l that
// has instructions on its tenant's FIFO, or finishes the run when no such
// level is left. pending is set before the first push: workers start on a
// slice the moment it is visible.
func (s *Shared) advance(r *sharedRun, l int) {
	for ; l < len(r.levels); l++ {
		sl := s.slices(r.levels[l])
		if len(sl) == 0 {
			continue
		}
		r.level = l
		r.pending.Store(int32(len(sl)))
		for _, instrs := range sl {
			s.q.Push(r.key.id, sharedTask{run: r, instrs: instrs, seq: s.seq.Add(1), pushed: time.Now()})
		}
		return
	}
	r.finish(nil)
}

// complete records one evaluated slice of r: the slice that finishes a
// level queues the next one, or finishes the run.
func (s *Shared) complete(r *sharedRun) {
	if r.pending.Add(-1) == 0 {
		s.advance(r, r.level+1)
	}
}

// worker is one persistent evaluation goroutine; only Close stops it. It
// pops a slice, evaluates it on its engine for the slice's key, and — when
// the slice leaves a partial kernel batch and every other worker is busy
// too — tops the batch up with the same tenant's next queued slices, which
// routinely belong to other concurrent requests (only work under one key
// can share a dispatch, and a tenant is exactly a key). The top-up stops
// at the first full dispatch, so a round is under two batches long. The
// fair queue charges every slice to the tenant's virtual time, so
// batching amortizes kernels without distorting cross-tenant fairness.
func (s *Shared) worker(w int) {
	defer s.wg.Done()
	// open holds the runs whose slices this round evaluates, each with the
	// bootstraps its slices added.
	type openRun struct {
		run   *sharedRun
		boots int64
	}
	var open []openRun
	for {
		t, _, ok := s.q.Pop()
		if !ok {
			return
		}
		r := t.run
		if !r.enter() {
			continue
		}
		key := r.key
		it := key.interps[w]
		if it == nil {
			it = plan.NewInterp(gate.NewEngine(key.ck), s.batch)
			key.interps[w] = it
		}

		s.busy.Add(1)
		start := time.Now()
		r.waitNs.Add(int64(start.Sub(t.pushed)))
		err := r.rt.Exec(it, t.instrs, false)
		open = append(open[:0], openRun{r, it.N.Bootstraps})
		// A worker that is not mid-round is about to take the next slice
		// itself, and running it in parallel beats folding it into this
		// batch: top up only while every worker is occupied.
		for err == nil && it.Pending() > 0 && it.N.Batches == 0 && int(s.busy.Load()) == s.workers {
			t2, ok := s.q.TryPopTenant(key.id)
			if !ok {
				break
			}
			if !t2.run.enter() {
				continue
			}
			t2.run.waitNs.Add(int64(time.Since(t2.pushed)))
			before := it.N.Bootstraps
			err = t2.run.rt.Exec(it, t2.instrs, false)
			open = append(open, openRun{t2.run, it.N.Bootstraps - before})
		}
		if err == nil {
			err = it.Run(nil, nil, nil, true)
		}

		s.instrs.Add(it.N.Instrs)
		s.boots.Add(it.N.Bootstraps)
		s.luts.Add(it.N.LUTs)
		if it.N.Batches > 0 {
			s.batches.Add(it.N.Batches)
			s.batched.Add(it.N.Bootstraps)
			r.batches.Add(it.N.Batches)
			cross := false
			for _, o := range open {
				o.run.batched.Add(o.boots)
				cross = cross || (o.run != r && o.boots > 0)
			}
			if cross {
				s.crossRun.Add(1)
			}
		}
		it.N = plan.Counts{}
		busy := int64(time.Since(start))
		s.busyNs.Add(busy)
		r.busyNs.Add(busy)
		s.busy.Add(-1)

		for i, o := range open {
			if err != nil {
				o.run.finish(fmt.Errorf("backend: %w", err))
			} else {
				s.complete(o.run)
			}
			o.run.exit()
			open[i] = openRun{}
		}
		// A worker with work queued never blocks, so with every P held by
		// a worker the goroutines that feed it — a submitter just woken, a
		// connection decoding the next request — would wait out the
		// scheduler's 10 ms preemption quantum. Yield once per round.
		runtime.Gosched()
	}
}

// sharedTask is one ready slice of one in-flight run: at most one
// kernel batch of mutually independent instructions from one level.
type sharedTask struct {
	run    *sharedRun
	instrs []plan.Instr
	seq    uint64
	pushed time.Time
}
