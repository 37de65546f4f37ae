package synth

import (
	"slices"
	"sync"
	"testing"

	"pytfhe/internal/circuit"
)

// FreshFixedPoints gives the test an empty fixed-point set, so what it
// records and finds does not depend on the tests before it, and puts the
// process's set back when the test ends.
func FreshFixedPoints(t *testing.T) {
	t.Helper()
	saved := fixedPoints
	fixedPoints = newFingerprintSet()
	t.Cleanup(func() { fixedPoints = saved })
}

// Recorded reports whether nl's fingerprint is in the fixed-point set.
func Recorded(nl *circuit.Netlist) bool {
	return fixedPoints.has(fixedPoints.fingerprint(nl))
}

// TestFixedPointsBounded optimizes three times as many distinct netlists
// (parity chains of distinct widths) as the set holds: it keeps the last
// fixedPointCap fixed points and has forgotten the older ones, which are
// synthesized again.
func TestFixedPointsBounded(t *testing.T) {
	FreshFixedPoints(t)
	const n = 3 * fixedPointCap
	var outs []*circuit.Netlist
	for i := 2; i < n+2; i++ {
		res, err := Optimize(xorChain(i))
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, res.Netlist)
	}
	if fixedPoints.n != n {
		t.Fatalf("set took %d fingerprints, want %d", fixedPoints.n, n)
	}
	for i, nl := range outs {
		if want := i >= n-fixedPointCap; Recorded(nl) != want {
			t.Fatalf("netlist %d of %d: recorded %v, want %v", i, n, !want, want)
		}
	}
	res, err := Optimize(outs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("an evicted fixed point was not synthesized again")
	}
}

// TestFixedPointsOnlyOptimize runs OptimizeLUT and OptimizeWith: neither
// records what it returns, so Optimize synthesizes their output normally.
func TestFixedPointsOnlyOptimize(t *testing.T) {
	FreshFixedPoints(t)
	nl := randomNetlist(11, 80)
	lut, err := OptimizeLUT(nl)
	if err != nil {
		t.Fatal(err)
	}
	with, err := OptimizeWith(nl, StandardPasses(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if fixedPoints.n != 0 {
		t.Fatalf("OptimizeLUT and OptimizeWith recorded %d fingerprints", fixedPoints.n)
	}
	for name, out := range map[string]*circuit.Netlist{"OptimizeLUT": lut.Netlist, "OptimizeWith": with.Netlist} {
		res, err := Optimize(out)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations == 0 {
			t.Fatalf("Optimize of %s's result ran no round", name)
		}
		CheckFixedPoint(t, name, out)
	}
}

// TestFixedPointsConcurrent calls Optimize from several goroutines at once
// on shared netlists — raw ones, and their optimized forms, which hit —
// while the set fills. Every result is the count loop's, gate for gate.
func TestFixedPointsConcurrent(t *testing.T) {
	FreshFixedPoints(t)
	var raw, want []*circuit.Netlist
	for seed := int64(1); seed <= 6; seed++ {
		nl := randomNetlist(seed, 120)
		res, err := OptimizeByCount(nl)
		if err != nil {
			t.Fatal(err)
		}
		raw, want = append(raw, nl), append(want, res.Netlist)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range raw {
					for _, in := range []*circuit.Netlist{raw[(i+w)%len(raw)], want[(i+w)%len(raw)]} {
						res, err := Optimize(in)
						if err != nil {
							t.Error(err)
							return
						}
						if !sameNetlist(res.Netlist, want[(i+w)%len(raw)]) {
							t.Errorf("worker %d: netlist %d differs from the count loop's", w, (i+w)%len(raw))
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i, nl := range want {
		if !Recorded(nl) {
			t.Errorf("netlist %d's fixed point is not recorded", i)
		}
	}
}

// sameNetlist reports whether a and b have the same input count, gates and
// outputs.
func sameNetlist(a, b *circuit.Netlist) bool {
	return a.NumInputs == b.NumInputs && slices.Equal(a.Gates, b.Gates) && slices.Equal(a.Outputs, b.Outputs)
}
