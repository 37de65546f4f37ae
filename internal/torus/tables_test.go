package torus

import (
	"fmt"
	"sync"
	"testing"
)

// TestTablesForConcurrent hammers the twiddle-table cache from 16 goroutines
// across several ring sizes at once. Run under -race it verifies the
// lock-free snapshot path: every goroutine must observe one canonical table
// per size — both vector twiddle layouts included — and
// concurrent first-time inserts of different sizes must not lose each
// other's entries.
func TestTablesForConcurrent(t *testing.T) {
	sizes := []int{16, 32, 64, 128, 256, 512, 1024, 2048}
	const goroutines = 16
	const iters = 200

	var wg sync.WaitGroup
	got := make([][]*halfTables, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := make([]*halfTables, len(sizes))
			for it := 0; it < iters; it++ {
				// Stagger the starting size so first-time constructions of
				// different sizes race with each other.
				for s := range sizes {
					n := sizes[(s+g)%len(sizes)]
					tab := halfTablesFor(n)
					if tab.n != n {
						t.Errorf("halfTablesFor(%d) returned tables for n=%d", n, tab.n)
						return
					}
					idx := (s + g) % len(sizes)
					if seen[idx] == nil {
						if err := checkVecTw(tab); err != nil {
							t.Errorf("halfTablesFor(%d): %v", n, err)
							return
						}
						seen[idx] = tab
					} else if seen[idx] != tab {
						t.Errorf("halfTablesFor(%d) returned distinct instances", n)
						return
					}
				}
			}
			got[g] = seen
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// All goroutines must agree on the canonical instance per size.
	for g := 1; g < goroutines; g++ {
		for i := range sizes {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutines 0 and %d disagree on tables for size index %d", g, i)
			}
		}
	}
}

// TestProcessorSharesTables checks that Processors of equal size share one
// table instance (the cache actually caches).
func TestProcessorSharesTables(t *testing.T) {
	a := NewProcessor(64)
	b := NewProcessor(64)
	if a.tab != b.tab {
		t.Fatal("two processors of the same size got distinct twiddle tables")
	}
}

// checkVecTw verifies the vector twiddle layouts against the scalar
// tables: per stage with q >= 4 (AVX2) or q >= 8 (AVX-512), per group of
// four or eight j, [w1r w1i w2r w2i w3r w3i] one vector each.
func checkVecTw(tab *halfTables) error {
	for _, v := range []struct {
		lanes int
		tw    []float64
		off   func(halfStage) int
	}{
		{4, tab.vecTw, func(st halfStage) int { return st.voff }},
		{8, tab.vecTw8, func(st halfStage) int { return st.voff8 }},
	} {
		want := 0
		for _, st := range tab.stages {
			if st.q < v.lanes {
				continue
			}
			if v.off(st) != want {
				return fmt.Errorf("%d lanes, stage s=%d: vector offset %d, want %d", v.lanes, st.s, v.off(st), want)
			}
			for j := 0; j < st.q; j++ {
				for r := 0; r < 3; r++ {
					k := want + (j/v.lanes)*6*v.lanes + 2*r*v.lanes + j%v.lanes
					if v.tw[k] != tab.fwdRe[st.off+3*j+r] || v.tw[k+v.lanes] != tab.fwdIm[st.off+3*j+r] {
						return fmt.Errorf("%d lanes, stage s=%d: w^{%d·%d} misplaced", v.lanes, st.s, r+1, j)
					}
				}
			}
			want += 6 * st.q
		}
		if len(v.tw) != want {
			return fmt.Errorf("%d-lane layout holds %d values, want %d", v.lanes, len(v.tw), want)
		}
	}
	return nil
}
