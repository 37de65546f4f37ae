package exec

import (
	"errors"
	"sync"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/tfhe/lwe"
)

func TestQueuePriorityOrder(t *testing.T) {
	prio := []int64{5, 1, 9, 3, 7}
	q := NewQueue[int32](5, func(a, b int32) bool { return prio[a] > prio[b] })
	for gi := range prio {
		q.Push(int32(gi))
	}
	want := []int32{2, 4, 0, 3, 1} // descending priority
	for _, w := range want {
		gi, ok := q.Pop()
		if !ok || gi != w {
			t.Fatalf("pop = %d,%v; want %d", gi, ok, w)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("try-pop on a drained queue returned an item")
	}
	q.Finish()
	if _, ok := q.Pop(); ok {
		t.Fatal("pop after finish must report done")
	}
}

// TestQueueBlockingPop: a Pop blocked on an empty queue is woken by a
// later Push, and Finish releases all remaining waiters.
func TestQueueBlockingPop(t *testing.T) {
	q := NewQueue(1, func(a, b int32) bool { return a < b })
	var wg sync.WaitGroup
	got := make(chan int32, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		gi, ok := q.Pop()
		if ok {
			got <- gi
		}
		// Second pop parks until Finish.
		if _, ok := q.Pop(); ok {
			t.Error("second pop should observe finish")
		}
	}()
	q.Push(42)
	if gi := <-got; gi != 42 {
		t.Fatalf("blocked pop woke with %d", gi)
	}
	q.Finish()
	wg.Wait()
}

// TestCriticalDepth: on a chain a→b→c plus a side gate off a, the chain
// head must carry the full remaining bootstrap count and the side gate a
// shallower one, so the scheduler prefers the chain.
func TestCriticalDepth(t *testing.T) {
	b := circuit.NewBuilder("depth", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	g0 := b.Gate(logic.NAND, x, y) // chain head, remaining 3
	g1 := b.Gate(logic.NAND, g0, y)
	g2 := b.Gate(logic.NAND, g1, y)
	side := b.Gate(logic.AND, x, y) // independent, remaining 1
	b.Output("chain", g2)
	b.Output("side", side)
	nl := b.MustBuild()

	deps := NewDeps(nl)
	rem := CriticalDepth(nl, deps.Children)
	if rem[0] != 3 || rem[1] != 2 || rem[2] != 1 || rem[3] != 1 {
		t.Fatalf("remaining depths = %v, want [3 2 1 1]", rem)
	}
	if got := deps.Ready(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("initial ready set = %v, want [0 3]", got)
	}
}

func TestCheckRawInputs(t *testing.T) {
	good := []*lwe.Sample{lwe.NewSample(4), lwe.NewSample(4)}
	if err := CheckRawInputs(good, 2, 4); err != nil {
		t.Fatalf("valid inputs rejected: %v", err)
	}
	if err := CheckRawInputs(good, 3, 4); err == nil {
		t.Fatal("short inputs not rejected")
	}
	if err := CheckRawInputs([]*lwe.Sample{lwe.NewSample(4), nil}, 2, 4); !errors.Is(err, ErrNilInput) {
		t.Fatalf("nil input error = %v, want ErrNilInput", err)
	}
	if err := CheckRawInputs(good, 2, 8); err == nil {
		t.Fatal("wrong dimension not rejected")
	}
	// A non-positive dim skips the dimension check (the Plain backend).
	if err := CheckRawInputs(good, 2, 0); err != nil {
		t.Fatalf("dim 0 must skip the dimension check: %v", err)
	}
	if err := CheckRawInputs([]*lwe.Sample{nil}, 1, 0); !errors.Is(err, ErrNilInput) {
		t.Fatalf("dim 0 must still reject nil inputs: %v", err)
	}
}

func TestPoolRecycles(t *testing.T) {
	p := NewPool(4)
	a := p.Get()
	if a.Dimension() != 4 {
		t.Fatalf("dimension = %d, want 4", a.Dimension())
	}
	p.Put(a)
	if b := p.Get(); b != a {
		t.Fatal("free-list sample not reused")
	}
	p.Put(nil) // no-op
	if s := p.Get(); s == nil || s == a {
		t.Fatal("empty free list must allocate fresh")
	}
}

func TestArenaAccounting(t *testing.T) {
	a := NewArena(4)
	s1, s2 := a.Get(), a.Get()
	if a.Live() != 2 || a.HighWater() != 2 {
		t.Fatalf("live=%d highWater=%d, want 2/2", a.Live(), a.HighWater())
	}
	a.Put(s1)
	a.Put(s2)
	if a.Live() != 0 || a.HighWater() != 2 {
		t.Fatalf("after put: live=%d highWater=%d, want 0/2", a.Live(), a.HighWater())
	}
	if s := a.Get(); s != s2 && s != s1 {
		t.Fatal("arena free list not reused")
	}
	if a.HighWater() != 2 {
		t.Fatalf("high water moved to %d on re-get within peak", a.HighWater())
	}
}

// TestStateReleaseHoldsOutputs: an output node's fan-out reference keeps
// its ciphertext out of the recycler until Collect reads it, even when
// the node also feeds interior gates.
func TestStateReleaseHoldsOutputs(t *testing.T) {
	b := circuit.NewBuilder("hold", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	mid := b.Gate(logic.NAND, x, y)
	last := b.Gate(logic.AND, mid, y) // mid is both operand and output
	b.Output("mid", mid)
	b.Output("last", last)
	nl := b.MustBuild()

	st, err := NewState(nl, []*lwe.Sample{lwe.NewSample(4), lwe.NewSample(4)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewPool(4)
	st.Values[mid] = mem.Get()
	st.Values[last] = mem.Get()
	st.Release(mid, mem) // the interior read drains
	if st.Values[mid] == nil {
		t.Fatal("output reference must survive the interior release")
	}
	st.Release(x, mem) // inputs are never recycled
	if st.Values[x] == nil {
		t.Fatal("input slot must never be released")
	}
	outs, err := st.Collect(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("collected %d outputs, want 2", len(outs))
	}
	st.Release(mid, nil) // the output reference; nil Memory just drops it
	if st.Values[mid] != nil {
		t.Fatal("last release must clear the slot")
	}
}
