package qos

import (
	"errors"
	"sync"
	"testing"
)

// intLess is an ascending heap order for test tasks.
func intLess(a, b int) bool { return a < b }

// TestFairInterleavesEqualTenants loads two equal-weight tenants and
// checks service alternates: any prefix of the pop sequence serves each
// tenant within one pick of the other.
func TestFairInterleavesEqualTenants(t *testing.T) {
	f := NewFair[int](intLess)
	for i := 0; i < 50; i++ {
		f.Push(1, 100+i)
		f.Push(2, 200+i)
	}
	counts := map[int64]int{}
	for i := 0; i < 100; i++ {
		v, id, ok := f.TryPop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if id == 1 && (v < 100 || v >= 150) || id == 2 && (v < 200 || v >= 250) {
			t.Fatalf("pop %d: task %d attributed to tenant %d", i, v, id)
		}
		counts[id]++
		if d := counts[1] - counts[2]; d < -1 || d > 1 {
			t.Fatalf("after %d pops: tenant picks %v diverged beyond one", i+1, counts)
		}
	}
	if counts[1] != 50 || counts[2] != 50 {
		t.Fatalf("final picks = %v, want 50/50", counts)
	}
}

// TestFairWeights checks a weight-3 tenant receives ~3x the service of a
// weight-1 tenant over any window.
func TestFairWeights(t *testing.T) {
	f := NewFair[int](intLess)
	f.SetWeight(1, 3)
	for i := 0; i < 90; i++ {
		f.Push(1, i)
	}
	for i := 0; i < 30; i++ {
		f.Push(2, i)
	}
	heavy := 0
	for i := 0; i < 40; i++ {
		_, id, ok := f.TryPop()
		if !ok {
			t.Fatal("queue empty early")
		}
		if id == 1 {
			heavy++
		}
	}
	// Exactly 3:1 modulo boundary effects: 40 picks → 30 heavy, 10 light.
	if heavy < 28 || heavy > 32 {
		t.Fatalf("weight-3 tenant served %d of 40 picks, want ~30", heavy)
	}
	snap := f.Snapshot()
	if snap[1].Weight != 3 || snap[1].Picks != int64(heavy) {
		t.Fatalf("snapshot = %+v", snap[1])
	}
}

// TestFairNoStarvation floods tenant 1, then has tenant 2 arrive late
// with a single task: it must be served on the very next pick — idleness
// banks no credit, and arrival does not queue behind the flood.
func TestFairNoStarvation(t *testing.T) {
	f := NewFair[int](intLess)
	for i := 0; i < 1000; i++ {
		f.Push(1, i)
	}
	for i := 0; i < 100; i++ {
		if _, id, _ := f.TryPop(); id != 1 {
			t.Fatalf("pop %d: tenant %d before any tenant-2 push", i, id)
		}
	}
	f.Push(2, 7)
	v, id, ok := f.TryPop()
	if !ok || id != 2 || v != 7 {
		t.Fatalf("late-arriving light tenant not served next: got task %d of tenant %d", v, id)
	}
}

// TestFairWithinTenantOrder checks the per-tenant heap still pops the
// best task under less.
func TestFairWithinTenantOrder(t *testing.T) {
	f := NewFair[int](intLess)
	for _, v := range []int{5, 1, 4, 2, 3} {
		f.Push(1, v)
	}
	for want := 1; want <= 5; want++ {
		v, _, ok := f.TryPop()
		if !ok || v != want {
			t.Fatalf("pop = %d, want %d", v, want)
		}
	}
}

// TestFairTryPopTenant checks the batching top-up path drains only the
// requested tenant and charges its virtual time.
func TestFairTryPopTenant(t *testing.T) {
	f := NewFair[int](intLess)
	f.Push(1, 10)
	f.Push(1, 11)
	f.Push(2, 20)
	if _, ok := f.TryPopTenant(3); ok {
		t.Fatal("TryPopTenant served an unknown tenant")
	}
	v, ok := f.TryPopTenant(1)
	if !ok || v != 10 {
		t.Fatalf("TryPopTenant(1) = %d, %v", v, ok)
	}
	v, ok = f.TryPopTenant(1)
	if !ok || v != 11 {
		t.Fatalf("TryPopTenant(1) second = %d, %v", v, ok)
	}
	// Tenant 1 was served twice out of band; the fair pick goes to 2.
	if _, id, ok := f.TryPop(); !ok || id != 2 {
		t.Fatalf("fair pick after burst = tenant %d", id)
	}
	if _, ok := f.TryPopTenant(1); ok {
		t.Fatal("TryPopTenant on an empty tenant succeeded")
	}
}

// TestFairBlockingPopAndFinish checks Pop blocks until a push arrives and
// Finish wakes blocked consumers with ok=false.
func TestFairBlockingPopAndFinish(t *testing.T) {
	f := NewFair[int](intLess)
	got := make(chan int, 1)
	go func() {
		v, _, ok := f.Pop()
		if !ok {
			got <- -1
			return
		}
		got <- v
	}()
	f.Push(9, 42)
	if v := <-got; v != 42 {
		t.Fatalf("blocked Pop woke with %d", v)
	}

	done := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, ok := f.Pop()
			done <- ok
		}()
	}
	f.Finish()
	for i := 0; i < 2; i++ {
		if ok := <-done; ok {
			t.Fatal("Pop returned ok after Finish")
		}
	}
	if _, _, ok := f.TryPop(); ok {
		t.Fatal("TryPop returned ok after Finish")
	}
}

// TestFairForget drops idle tenants but keeps ones with queued work.
func TestFairForget(t *testing.T) {
	f := NewFair[int](intLess)
	f.Push(1, 1)
	f.Forget(1)
	if n := f.LenTenant(1); n != 1 {
		t.Fatalf("Forget dropped a tenant with %d queued tasks", n)
	}
	f.TryPop()
	f.Forget(1)
	if _, ok := f.Snapshot()[1]; ok {
		t.Fatal("idle tenant survived Forget")
	}
}

// TestQuota exercises both limits and the typed error.
func TestQuota(t *testing.T) {
	if q := NewQuota[string](0, 0); q != nil {
		t.Fatal("unlimited quota should be nil")
	}
	var nilQ *Quota[string]
	if err := nilQ.Acquire("a", 1000); err != nil {
		t.Fatalf("nil quota rejected: %v", err)
	}
	nilQ.Release("a", 1000)

	q := NewQuota[string](2, 100)
	if err := q.Acquire("a", 60); err != nil {
		t.Fatal(err)
	}
	if err := q.Acquire("a", 60); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("gate overflow: err = %v, want ErrQuotaExceeded", err)
	}
	if err := q.Acquire("a", 40); err != nil {
		t.Fatal(err)
	}
	if err := q.Acquire("a", 1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("run overflow: err = %v, want ErrQuotaExceeded", err)
	}
	// Another tenant is unaffected.
	if err := q.Acquire("b", 100); err != nil {
		t.Fatalf("tenant b throttled by tenant a: %v", err)
	}
	q.Release("a", 60)
	if err := q.Acquire("a", 60); err != nil {
		t.Fatalf("release did not restore quota: %v", err)
	}
	if got := q.Rejects(); got != 2 {
		t.Fatalf("Rejects = %d, want 2", got)
	}
}

// TestLRU pins the entry cap and the eviction order: the coldest entry
// goes, and Get and a replacing Add both refresh recency.
func TestLRU(t *testing.T) {
	c := NewLRU(2)
	c.Add("a", "A")
	c.Add("b", "B")
	if _, ok := c.Get("a"); !ok { // refresh a: b is now coldest
		t.Fatal("a missing")
	}
	c.Add("c", "C")
	if c.Len() != 2 {
		t.Fatalf("len = %d after eviction, want the cap 2", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("coldest entry b survived an Add past the cap")
	}

	// Replacing a resident key updates it in place, evicts nothing, and
	// makes it most recent: a is now coldest.
	c.Add("c", "C2")
	if v, ok := c.Get("c"); !ok || v != "C2" || c.Len() != 2 {
		t.Fatalf("replace: c=%v ok=%v len=%d", v, ok, c.Len())
	}
	c.Add("d", "D")
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived although c was refreshed after it")
	}
	for _, k := range []string{"c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of order", k)
		}
	}

	// A cap below one still holds the latest entry.
	one := NewLRU(0)
	one.Add("x", 1)
	one.Add("y", 2)
	if _, ok := one.Get("y"); !ok || one.Len() != 1 {
		t.Fatalf("cap-0 cache: len %d, latest resident %v", one.Len(), ok)
	}
}

// TestLRUConcurrent hammers the cache from several goroutines under
// -race; the assertion is the entry cap at the end.
func TestLRUConcurrent(t *testing.T) {
	c := NewLRU(5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := string(rune('a' + (g+i)%16))
				c.Add(key, i)
				c.Get(key)
				c.Add(key, i+1)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 5 {
		t.Fatalf("len %d after concurrent churn, want the cap 5", c.Len())
	}
}
