package qos

import "sync"

// Fair is a blocking multi-producer multi-consumer ready set partitioned
// by tenant: one heap per tenant (ordered by the caller's less function)
// plus a weighted start-time fair-queuing picker across tenants. It is
// backend.Shared's queue — within a tenant the best task under less pops
// first (Shared orders by arrival), but across tenants service is
// interleaved in proportion to weight, so a hot tenant with thousands of
// queued tasks cannot starve a light one that has a single task ready.
//
// The picker is classic SFQ: every tenant carries a virtual time that
// advances by 1/weight per task served, and Pop serves the non-empty
// tenant with the smallest virtual time. A tenant that goes idle and
// returns is brought forward to the current virtual clock, so idleness
// banks no credit and a returning tenant is served promptly rather than
// monopolizing the queue to "catch up".
type Fair[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	less func(a, b T) bool
	ten  map[int64]*tenantQ[T]
	n    int     // queued tasks across all tenants
	vc   float64 // virtual clock: start tag of the most recent pick
	done bool
}

// tenantQ is one tenant's heap plus its fair-queuing state.
type tenantQ[T any] struct {
	items  []T     // heap under Fair.less
	weight float64 // service share relative to other tenants (default 1)
	vt     float64 // virtual start time of the tenant's next task
	picks  int64   // tasks served to this tenant since creation
}

// FairTenantStats is one tenant's snapshot in Fair.Snapshot.
type FairTenantStats struct {
	Queued int     // tasks currently queued
	Picks  int64   // tasks served since the tenant first appeared
	Weight float64 // configured service weight
}

// NewFair returns a fair queue whose per-tenant heaps pop the least
// element under less first (pass a descending comparison for max-heaps).
func NewFair[T any](less func(a, b T) bool) *Fair[T] {
	f := &Fair[T]{less: less, ten: make(map[int64]*tenantQ[T])}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// tenant returns (creating if needed) the tenant's queue state.
func (f *Fair[T]) tenant(id int64) *tenantQ[T] {
	tq := f.ten[id]
	if tq == nil {
		tq = &tenantQ[T]{weight: 1}
		f.ten[id] = tq
	}
	return tq
}

// SetWeight sets a tenant's service share (weights are relative; the
// default is 1, and w <= 0 resets to 1). Safe at any time, including
// while the tenant has queued work.
func (f *Fair[T]) SetWeight(id int64, w float64) {
	if w <= 0 {
		w = 1
	}
	f.mu.Lock()
	f.tenant(id).weight = w
	f.mu.Unlock()
}

// Push enqueues v for the given tenant and wakes one blocked Pop. A
// tenant activating from idle starts at the current virtual clock, never
// behind it.
func (f *Fair[T]) Push(id int64, v T) {
	f.mu.Lock()
	tq := f.tenant(id)
	if len(tq.items) == 0 && tq.vt < f.vc {
		tq.vt = f.vc
	}
	tq.items = append(tq.items, v)
	f.up(tq, len(tq.items)-1)
	f.n++
	f.mu.Unlock()
	f.cond.Signal()
}

// Pop blocks until a task is available or the queue is finished; the
// second result is false once Finish has been called. The task returned
// belongs to the non-empty tenant with the least virtual time; within
// that tenant it is the best task under less. The tenant id rides along
// so batching consumers can top up from the same tenant.
func (f *Fair[T]) Pop() (T, int64, bool) {
	var zero T
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.done {
			return zero, 0, false
		}
		if v, id, ok := f.popLocked(); ok {
			return v, id, true
		}
		f.cond.Wait()
	}
}

// TryPop is Pop without blocking: it reports false when no task is
// immediately available or the queue is finished.
func (f *Fair[T]) TryPop() (T, int64, bool) {
	var zero T
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return zero, 0, false
	}
	return f.popLocked()
}

// TryPopTenant pops the given tenant's best task if one is immediately
// available — the batching top-up path: a worker that seeded a kernel
// batch with one tenant's bootstrap drains more work from the same
// tenant (batches can only share a cloud key). The service is charged to
// the tenant's virtual time exactly like a fair pick, so a tenant served
// in bursts pays for the burst on subsequent picks.
func (f *Fair[T]) TryPopTenant(id int64) (T, bool) {
	var zero T
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return zero, false
	}
	tq := f.ten[id]
	if tq == nil || len(tq.items) == 0 {
		return zero, false
	}
	return f.serveLocked(tq), true
}

// popLocked picks the least-virtual-time non-empty tenant and serves its
// best task. The scan is linear in the number of tenants with queued
// work, which is small (tenants, not gates).
func (f *Fair[T]) popLocked() (T, int64, bool) {
	var zero T
	var best *tenantQ[T]
	var bestID int64
	for id, tq := range f.ten {
		if len(tq.items) == 0 {
			continue
		}
		if best == nil || tq.vt < best.vt || (tq.vt == best.vt && id < bestID) {
			best, bestID = tq, id
		}
	}
	if best == nil {
		return zero, 0, false
	}
	return f.serveLocked(best), bestID, true
}

// serveLocked pops tq's heap top and advances the fair-queuing clocks.
func (f *Fair[T]) serveLocked(tq *tenantQ[T]) T {
	var zero T
	top := tq.items[0]
	last := len(tq.items) - 1
	tq.items[0] = tq.items[last]
	tq.items[last] = zero // release any pointers in the popped slot
	tq.items = tq.items[:last]
	if last > 0 {
		f.down(tq, 0)
	}
	if tq.vt > f.vc {
		f.vc = tq.vt
	}
	tq.vt += 1 / tq.weight
	tq.picks++
	f.n--
	return top
}

// Len reports the number of queued tasks across all tenants.
func (f *Fair[T]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// LenTenant reports one tenant's queued-task count.
func (f *Fair[T]) LenTenant(id int64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if tq := f.ten[id]; tq != nil {
		return len(tq.items)
	}
	return 0
}

// Snapshot reports every known tenant's queue depth, cumulative picks,
// and weight.
func (f *Fair[T]) Snapshot() map[int64]FairTenantStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[int64]FairTenantStats, len(f.ten))
	for id, tq := range f.ten {
		out[id] = FairTenantStats{Queued: len(tq.items), Picks: tq.picks, Weight: tq.weight}
	}
	return out
}

// Forget drops an idle tenant's bookkeeping — the cache-lifecycle hook
// for "last session under this key closed". A tenant with queued work is
// kept (its tasks must still drain); forgetting is then a no-op.
func (f *Fair[T]) Forget(id int64) {
	f.mu.Lock()
	if tq := f.ten[id]; tq != nil && len(tq.items) == 0 {
		delete(f.ten, id)
	}
	f.mu.Unlock()
}

// Finish makes every current and future Pop return false and wakes all
// blocked consumers. Tasks still queued are never popped.
func (f *Fair[T]) Finish() {
	f.mu.Lock()
	f.done = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

func (f *Fair[T]) up(tq *tenantQ[T], i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !f.less(tq.items[i], tq.items[parent]) {
			return
		}
		tq.items[i], tq.items[parent] = tq.items[parent], tq.items[i]
		i = parent
	}
}

func (f *Fair[T]) down(tq *tenantQ[T], i int) {
	n := len(tq.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && f.less(tq.items[l], tq.items[best]) {
			best = l
		}
		if r < n && f.less(tq.items[r], tq.items[best]) {
			best = r
		}
		if best == i {
			return
		}
		tq.items[i], tq.items[best] = tq.items[best], tq.items[i]
		i = best
	}
}
