package torus

import (
	"fmt"
	"sync"
	"testing"
)

// TestTablesForConcurrent hammers the twiddle-table cache from 16 goroutines
// across several ring sizes at once. Run under -race it verifies the
// lock-free snapshot path: every goroutine must observe one canonical table
// per size — the AVX2 kernels' vector twiddle layout included — and
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

// checkVecTw verifies the AVX2 twiddle layout against the scalar tables:
// per stage with q >= 4, per group of four j, [w1r w1i w2r w2i w3r w3i]×4.
func checkVecTw(tab *halfTables) error {
	want := 0
	for _, st := range tab.stages {
		if st.q < 4 {
			continue
		}
		if st.voff != want {
			return fmt.Errorf("stage s=%d: vector offset %d, want %d", st.s, st.voff, want)
		}
		for j := 0; j < st.q; j++ {
			for r := 0; r < 3; r++ {
				k := st.voff + (j/4)*24 + r*8 + j%4
				if tab.vecTw[k] != tab.fwdRe[st.off+3*j+r] || tab.vecTw[k+4] != tab.fwdIm[st.off+3*j+r] {
					return fmt.Errorf("stage s=%d: w^{%d·%d} misplaced in vecTw", st.s, r+1, j)
				}
			}
		}
		want += 6 * st.q
	}
	if len(tab.vecTw) != want {
		return fmt.Errorf("vecTw holds %d values, want %d", len(tab.vecTw), want)
	}
	return nil
}
