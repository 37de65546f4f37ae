package backend

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/logic"
	"pytfhe/internal/qos"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
)

// ErrExecutorClosed is returned by Shared.Submit once Close has been
// called; in-flight submissions are failed with it too.
var ErrExecutorClosed = errors.New("backend: shared executor closed")

// ErrKeyReleased is returned by Submit for a key handle that has been
// released with ReleaseKey (the last session under the key closed).
var ErrKeyReleased = errors.New("backend: cloud key released")

// QoSConfig tunes the shared executor's per-tenant quality of service.
// The zero value is the legacy behavior: no quotas, equal weights.
type QoSConfig struct {
	// MaxRunsPerTenant caps a tenant's concurrent Submit calls; past it
	// Submit fails fast with qos.ErrQuotaExceeded (0: unlimited).
	MaxRunsPerTenant int
	// MaxQueuedGatesPerTenant caps the total gate count of a tenant's
	// in-flight submissions (0: unlimited). A single run larger than the
	// cap is always rejected, so size the cap to the largest admitted
	// program times the desired concurrency.
	MaxQueuedGatesPerTenant int
}

// Shared is the multi-tenant variant of Async: one persistent worker set
// that evaluates gates from any number of concurrent Submit calls, over any
// number of cloud keys. Where Async owns a single run at a time, Shared
// interleaves the ready gates of every in-flight netlist across workers, so
// a small circuit never leaves workers idle while a large one drains — the
// serving-layer analogue of the paper amortizing CUDA-Graph construction
// across batches. Each worker lazily builds one gate.Engine per registered
// key (engines are not safe to share), and recycles ciphertexts through
// per-dimension exec.Pool free lists exactly as the ready driver does; each
// run's value table, dependency counters, and refcount release are the
// shared exec.State/exec.Deps machinery.
//
// Scheduling is two-level. Each tenant (cloud-key registration) owns a
// private heap ordered critical-path-first (exec.CriticalDepth, as
// SchedCritical) with arrival order breaking ties; across tenants a
// weighted start-time fair-queuing picker (qos.Fair) interleaves service
// in proportion to configured weights, so a hot tenant flooding thousands
// of gates can no longer starve a light one — the property the earlier
// single cross-run heap (priority, then global arrival order) lacked.
type Shared struct {
	workers int
	batch   int
	q       *qos.Fair[sharedTask]
	quota   *qos.Quota[int64]
	wg      sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	runs     map[*sharedRun]struct{}
	keySeq   int64
	released map[int64]struct{} // key ids dropped by ReleaseKey
	seq      uint64             // arrival tiebreak for queued tasks (atomic)

	// Cumulative counters since construction (atomics).
	gatesDone  int64
	bootsDone  int64
	lutsDone   int64
	busyNs     int64
	submits    int64
	quotaRej   int64
	keysFreed  int64
	relGen     int64 // bumped by ReleaseKey; workers prune engines on change
	inflightRn int32

	// Batch occupancy (atomics; only touched when batch > 1).
	batchesDone  int64
	batchedBoots int64
	crossRunBtch int64 // batches whose members spanned ≥2 submissions
}

// SharedKey is a cloud key registered with a Shared executor. Every worker
// caches one engine per SharedKey, so registering the same key once per
// tenant session (rather than per request) is what makes key upload a
// session-scoped cost. The key doubles as the executor's tenant identity:
// fairness, quotas, and pick accounting are all per SharedKey.
type SharedKey struct {
	owner *Shared
	id    int64
	ck    *boot.CloudKey
}

// Params exposes the key's parameter set.
func (k *SharedKey) Params() *boot.CloudKey { return k.ck }

// ID exposes the executor-local tenant id the key registered under (the
// join key for SharedStats.TenantPicks/TenantQueued).
func (k *SharedKey) ID() int64 { return k.id }

// NewShared starts a shared executor with the given worker count
// (minimum 1). It owns its goroutines until Close.
func NewShared(workers int) *Shared {
	return NewSharedQoS(workers, 1, QoSConfig{})
}

// NewSharedBatch is NewShared with batched bootstrap dispatch: a worker
// that pops a bootstrapped gate drains up to batch-1 more ready
// bootstrapped gates *under the same key* and evaluates them in one
// amortized kernel call. Because every in-flight submission's ready gates
// are queued, the batches it forms span concurrent tenant requests — the
// serving-side amortization the batch engine exists for. batch <= 1
// behaves exactly like NewShared.
func NewSharedBatch(workers, batch int) *Shared {
	return NewSharedQoS(workers, batch, QoSConfig{})
}

// NewSharedQoS is NewSharedBatch with per-tenant admission quotas (see
// QoSConfig). Weights default to equal; SetTenantWeight adjusts them per
// key.
func NewSharedQoS(workers, batch int, cfg QoSConfig) *Shared {
	if workers < 1 {
		workers = 1
	}
	if batch < 1 {
		batch = 1
	}
	s := &Shared{
		workers:  workers,
		batch:    batch,
		q:        qos.NewFair[sharedTask](taskLess),
		quota:    qos.NewQuota[int64](cfg.MaxRunsPerTenant, cfg.MaxQueuedGatesPerTenant),
		runs:     make(map[*sharedRun]struct{}),
		released: make(map[int64]struct{}),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Workers returns the size of the worker set.
func (s *Shared) Workers() int { return s.workers }

// RegisterKey makes a cloud key available to the worker set and returns
// the handle Submit requires. Engines for the key are created lazily, one
// per worker, on first use.
func (s *Shared) RegisterKey(ck *boot.CloudKey) (*SharedKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrExecutorClosed
	}
	s.keySeq++
	return &SharedKey{owner: s, id: s.keySeq, ck: ck}, nil
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
// session under this cloud key closed". Subsequent Submits with the
// handle fail with ErrKeyReleased, the fair scheduler forgets the
// tenant, and every worker prunes its cached engine for the key on its
// next dispatch — without this, per-key engine caches accumulate for the
// daemon's whole lifetime. In-flight runs under the key are unaffected
// (their engines are pruned only after the queue no longer holds the
// key's gates; the release check is at Submit, not per gate).
func (s *Shared) ReleaseKey(k *SharedKey) {
	if k == nil || k.owner != s {
		return
	}
	s.mu.Lock()
	if _, dup := s.released[k.id]; dup || s.closed {
		s.mu.Unlock()
		return
	}
	s.released[k.id] = struct{}{}
	s.mu.Unlock()
	atomic.AddInt64(&s.keysFreed, 1)
	atomic.AddInt64(&s.relGen, 1)
	s.q.Forget(k.id)
}

// SharedStats is a snapshot of the executor's cumulative counters.
type SharedStats struct {
	Workers    int
	QueueDepth int           // gates currently ready and waiting
	InFlight   int           // submissions currently executing
	Gates      int64         // gates evaluated since construction
	Bootstraps int64         // bootstrapped gates since construction
	LUTs       int64         // multi-input LUT gates among those (each one programmable bootstrap)
	Submits    int64         // Submit calls accepted
	WorkerBusy time.Duration // cumulative evaluation time across workers

	// Per-tenant fairness and quota accounting, keyed by SharedKey.ID.
	TenantPicks  map[int64]int64 // scheduler picks per tenant
	TenantQueued map[int64]int   // ready gates queued per tenant
	QuotaRejects int64           // Submits refused with qos.ErrQuotaExceeded
	KeysReleased int64           // ReleaseKey calls honored

	// Batch occupancy (zero unless the executor was built with
	// NewSharedBatch and batch > 1).
	BatchSize         int   // configured batch limit
	Batches           int64 // batched bootstrap dispatches
	BatchedBootstraps int64 // bootstrapped gates covered by those dispatches
	CrossRunBatches   int64 // batches spanning ≥2 concurrent submissions
}

// AvgBatchFill is the average number of bootstrapped gates per batched
// dispatch, or 0 when no batches ran.
func (st SharedStats) AvgBatchFill() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.BatchedBootstraps) / float64(st.Batches)
}

// BootstrapsPerSec is the executor's cumulative bootstrapped-gate
// throughput per busy worker-second — the figure of merit the paper
// reports (an earlier revision mislabeled it GatesPerSec).
func (st SharedStats) BootstrapsPerSec() float64 {
	if st.WorkerBusy <= 0 {
		return 0
	}
	return float64(st.Bootstraps) / st.WorkerBusy.Seconds() * float64(st.Workers)
}

// GatesPerSec is the executor's cumulative all-gate throughput per busy
// worker-second, free gates included.
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
	return SharedStats{
		Workers:           s.workers,
		QueueDepth:        depth,
		InFlight:          int(atomic.LoadInt32(&s.inflightRn)),
		Gates:             atomic.LoadInt64(&s.gatesDone),
		Bootstraps:        atomic.LoadInt64(&s.bootsDone),
		LUTs:              atomic.LoadInt64(&s.lutsDone),
		Submits:           atomic.LoadInt64(&s.submits),
		WorkerBusy:        time.Duration(atomic.LoadInt64(&s.busyNs)),
		TenantPicks:       picks,
		TenantQueued:      queued,
		QuotaRejects:      atomic.LoadInt64(&s.quotaRej),
		KeysReleased:      atomic.LoadInt64(&s.keysFreed),
		BatchSize:         s.batch,
		Batches:           atomic.LoadInt64(&s.batchesDone),
		BatchedBootstraps: atomic.LoadInt64(&s.batchedBoots),
		CrossRunBatches:   atomic.LoadInt64(&s.crossRunBtch),
	}
}

// Close shuts the worker set down. In-flight submissions fail with
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
		r.abort(ErrExecutorClosed)
	}
	s.q.Finish()
	s.wg.Wait()
}

// sharedRun is the per-submission scheduling state: the shared execution
// core's value table and dependency counters, plus the completion latch
// that lets concurrent submissions stay fully independent.
type sharedRun struct {
	nl     *circuit.Netlist
	key    *SharedKey
	st     *exec.State
	deps   *exec.Deps
	prio   []int64
	nGates int32
	done   int32

	aborted atomic.Bool
	once    sync.Once
	err     error
	doneCh  chan struct{}
}

func (r *sharedRun) finish(err error) {
	r.once.Do(func() {
		r.err = err
		close(r.doneCh)
	})
}

func (r *sharedRun) abort(err error) {
	r.aborted.Store(true)
	r.finish(err)
}

// Submit evaluates nl's gates on the shared worker set under the given
// key, blocking until the outputs are ready, the context is done, or the
// executor closes. It is safe to call from any number of goroutines; the
// inputs are not modified and the caller keeps ownership of them. With
// quotas configured a tenant over its run or gate budget fails fast with
// qos.ErrQuotaExceeded (other tenants are unaffected); a released key
// fails with ErrKeyReleased.
func (s *Shared) Submit(ctx context.Context, key *SharedKey, nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	if key == nil || key.owner != s {
		return nil, fmt.Errorf("backend: key not registered with this executor")
	}
	s.mu.Lock()
	_, rel := s.released[key.id]
	s.mu.Unlock()
	if rel {
		return nil, ErrKeyReleased
	}
	nGates := len(nl.Gates)
	if err := s.quota.Acquire(key.id, nGates); err != nil {
		atomic.AddInt64(&s.quotaRej, 1)
		return nil, err
	}
	defer s.quota.Release(key.id, nGates)

	dim := key.ck.Params.LWEDimension
	st, err := exec.NewState(nl, inputs, dim)
	if err != nil {
		return nil, err
	}

	r := &sharedRun{
		nl:     nl,
		key:    key,
		st:     st,
		deps:   exec.NewDeps(nl),
		nGates: int32(nGates),
		doneCh: make(chan struct{}),
	}
	// The initial ready set must be fixed before the first push: workers
	// start decrementing pending counters the moment a task is visible.
	initial := r.deps.Ready()
	r.prio = exec.CriticalDepth(nl, r.deps.Children)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrExecutorClosed
	}
	s.runs[r] = struct{}{}
	s.mu.Unlock()
	atomic.AddInt64(&s.submits, 1)
	atomic.AddInt32(&s.inflightRn, 1)
	defer func() {
		atomic.AddInt32(&s.inflightRn, -1)
		s.mu.Lock()
		delete(s.runs, r)
		s.mu.Unlock()
	}()

	if nGates == 0 {
		return r.st.Collect(dim)
	}
	for _, gi := range initial {
		s.push(r, gi)
	}

	select {
	case <-r.doneCh:
	case <-ctx.Done():
		// Mark first so workers popping this run's queued gates drop them;
		// gates whose operands never arrive are simply never enqueued.
		r.abort(ctx.Err())
		<-r.doneCh
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.st.Collect(dim)
}

// push enqueues one ready gate of r on its tenant's heap, stamping the
// arrival sequence that breaks priority ties within the tenant.
func (s *Shared) push(r *sharedRun, gi int32) {
	s.q.Push(r.key.id, sharedTask{run: r, gi: gi, prio: r.prio[gi], seq: atomic.AddUint64(&s.seq, 1)})
}

// complete publishes one finished gate's result, wakes its children, and
// recycles drained operands: the queue's mutex orders the write to
// Values[id] before any child's read of it.
func (s *Shared) complete(r *sharedRun, gi int32, out *lwe.Sample, pool *exec.Pool) {
	g := r.nl.Gates[gi]
	id := r.nl.GateID(int(gi))
	r.st.Values[id] = out
	for _, child := range r.deps.Children[id] {
		if atomic.AddInt32(&r.deps.Pending[child], -1) == 0 {
			s.push(r, child)
		}
	}
	for k := 0; k < g.NumOperands(); k++ {
		r.st.Release(g.Operand(k), pool)
	}
	atomic.AddInt64(&s.gatesDone, 1)
	if g.NeedsBootstrap() {
		atomic.AddInt64(&s.bootsDone, 1)
	}
	if g.IsLUT() {
		atomic.AddInt64(&s.lutsDone, 1)
	}
	if atomic.AddInt32(&r.done, 1) == r.nGates {
		r.finish(nil)
		// Hand the processor to the submitter just woken: with every P held
		// by a CPU-bound worker it would otherwise wait out the scheduler's
		// 10 ms preemption quantum before seeing its finished run.
		runtime.Gosched()
	}
}

// evalSingle evaluates one gate — classic 2-input or k-input LUT — on the
// single path, timing it into the cumulative busy counter.
func (s *Shared) evalSingle(eng *gate.Engine, pool *exec.Pool, t sharedTask) {
	r := t.run
	g := r.nl.Gates[t.gi]
	out := pool.Get()
	start := time.Now()
	var err error
	if g.IsLUT() {
		var ins [logic.MaxLUTArity]*lwe.Sample
		n := g.NumOperands()
		for k := 0; k < n; k++ {
			ins[k] = r.st.Values[g.Operand(k)]
		}
		err = eng.LUT(n, g.TT, out, ins[:n]...)
	} else {
		err = eng.Binary(g.Kind, out, r.st.Values[g.A], r.st.Values[g.B])
	}
	if err != nil {
		pool.Put(out)
		r.abort(fmt.Errorf("backend: gate %d: %w", r.nl.GateID(int(t.gi)), err))
		return
	}
	s.complete(r, t.gi, out, pool)
	atomic.AddInt64(&s.busyNs, int64(time.Since(start)))
}

// pruneEngines drops worker-local engines for released keys; called when
// the release generation moves, so the steady-state cost is one atomic
// load per dispatch.
func (s *Shared) pruneEngines(engines map[int64]*gate.Engine) {
	s.mu.Lock()
	for id := range engines {
		if _, dead := s.released[id]; dead {
			delete(engines, id)
		}
	}
	s.mu.Unlock()
}

// worker is one persistent evaluation goroutine. It keeps an engine per
// registered key and a ciphertext pool per LWE dimension, and survives
// individual run failures — only Close stops it. With batch > 1 a popped
// bootstrapped gate seeds a batch that is topped up from the same
// tenant's heap without blocking (only gates under one key can share a
// kernel dispatch, and a tenant is exactly a key); because that heap
// interleaves every in-flight submission of the tenant, those batches
// routinely span concurrent requests. The fair queue charges the burst
// to the tenant's virtual time, so batching amortizes kernels without
// distorting cross-tenant fairness.
func (s *Shared) worker() {
	defer s.wg.Done()
	engines := make(map[int64]*gate.Engine)
	pools := make(map[int]*exec.Pool)
	var relSeen int64
	var (
		tasks []sharedTask
		ops   []gate.Op
		outs  []*lwe.Sample
		avs   []*lwe.Sample
		bvs   []*lwe.Sample
		cvs   []*lwe.Sample
	)
	for {
		t, _, ok := s.q.Pop()
		if !ok {
			return
		}
		if g := atomic.LoadInt64(&s.relGen); g != relSeen {
			relSeen = g
			s.pruneEngines(engines)
		}
		r := t.run
		if r.aborted.Load() {
			continue
		}
		dim := r.key.ck.Params.LWEDimension
		pool := pools[dim]
		if pool == nil {
			pool = exec.NewPool(dim)
			pools[dim] = pool
		}
		eng := engines[r.key.id]
		if eng == nil {
			eng = gate.NewEngine(r.key.ck)
			engines[r.key.id] = eng
		}

		if s.batch <= 1 || !r.nl.Gates[t.gi].NeedsBootstrap() {
			s.evalSingle(eng, pool, t)
			continue
		}

		tasks, ops, outs = tasks[:0], ops[:0], outs[:0]
		avs, bvs, cvs = avs[:0], bvs[:0], cvs[:0]
		collect := func(t sharedTask) {
			g := t.run.nl.Gates[t.gi]
			tasks = append(tasks, t)
			ops = append(ops, gate.Op{Kind: g.Kind, TT: g.TT, Arity: g.Arity})
			outs = append(outs, pool.Get())
			avs = append(avs, t.run.st.Values[g.A])
			bvs = append(bvs, t.run.st.Values[g.B])
			if g.Arity >= 3 {
				cvs = append(cvs, t.run.st.Values[g.C])
			} else {
				cvs = append(cvs, nil)
			}
		}
		collect(t)
		for len(tasks) < s.batch {
			t2, ok := s.q.TryPopTenant(r.key.id)
			if !ok {
				break
			}
			if t2.run.aborted.Load() {
				continue
			}
			if !t2.run.nl.Gates[t2.gi].NeedsBootstrap() {
				s.evalSingle(eng, pool, t2)
				continue
			}
			collect(t2)
		}

		b := len(tasks)
		start := time.Now()
		if err := eng.OpBatch(ops[:b], outs[:b], avs[:b], bvs[:b], cvs[:b]); err != nil {
			for _, out := range outs[:b] {
				pool.Put(out)
			}
			for _, tm := range tasks[:b] {
				tm.run.abort(fmt.Errorf("backend: gate %d: %w", tm.run.nl.GateID(int(tm.gi)), err))
			}
			continue
		}
		atomic.AddInt64(&s.batchesDone, 1)
		atomic.AddInt64(&s.batchedBoots, int64(b))
		for _, tm := range tasks[1:b] {
			if tm.run != r {
				atomic.AddInt64(&s.crossRunBtch, 1)
				break
			}
		}
		for m := 0; m < b; m++ {
			s.complete(tasks[m].run, tasks[m].gi, outs[m], pool)
		}
		atomic.AddInt64(&s.busyNs, int64(time.Since(start)))
	}
}

// sharedTask is one ready gate of one in-flight submission.
type sharedTask struct {
	run  *sharedRun
	gi   int32
	prio int64
	seq  uint64
}

// taskLess orders each tenant's heap: deepest remaining critical path
// first, arrival order breaking ties. Cross-tenant order is the fair
// picker's job, not the heap's.
func taskLess(a, b sharedTask) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}
