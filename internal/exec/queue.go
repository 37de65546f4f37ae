package exec

import "sync"

// Queue is the blocking multi-producer multi-consumer ready set of the
// ready driver: a heap that pops the least element under less first.
// Finish wakes all waiters for both normal completion and abort.
type Queue[T any] struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []T
	less  func(a, b T) bool
	done  bool
}

// NewQueue returns a queue with the given initial capacity; Pop returns
// the least element under less (pass a descending comparison for a
// max-heap).
func NewQueue[T any](capacity int, less func(a, b T) bool) *Queue[T] {
	q := &Queue[T]{items: make([]T, 0, capacity), less: less}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues v and wakes one blocked Pop.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.up(len(q.items) - 1)
	q.mu.Unlock()
	q.cond.Signal()
}

// Pop blocks until an item is available or the queue is finished; the
// second result is false once Finish has been called.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.done {
			return zero, false
		}
		if v, ok := q.popLocked(); ok {
			return v, true
		}
		q.cond.Wait()
	}
}

// TryPop returns an item only if one is immediately available: the
// non-blocking drain used by the batching driver to top up a bootstrap
// batch without ever waiting (an empty queue is a flush, not a stall). It
// also returns false once the queue is finished.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done {
		return zero, false
	}
	return q.popLocked()
}

// popLocked removes and returns the next item under q.mu, or reports false
// when the queue is empty.
func (q *Queue[T]) popLocked() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = zero // release any pointers in the popped slot
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top, true
}

// Finish makes every current and future Pop return false and wakes all
// blocked workers. Called when the last gate completes or the run aborts;
// pushes racing with an abort land in the slice but are never popped.
func (q *Queue[T]) Finish() {
	q.mu.Lock()
	q.done = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.items[i], q.items[parent]) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q.less(q.items[l], q.items[best]) {
			best = l
		}
		if r < n && q.less(q.items[r], q.items[best]) {
			best = r
		}
		if best == i {
			return
		}
		q.items[i], q.items[best] = q.items[best], q.items[i]
		i = best
	}
}
