package plan

import (
	"math/rand"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/vipbench"
)

// checkFnIndexAgainstMap interns fs in the dedup index the way Compile does
// (findFn, then Insert of a fresh exec id) and in a Go map keyed by fn, and
// fails on the first disagreement.
func checkFnIndexAgainstMap(t *testing.T, x circuit.Index, fs []fn) {
	t.Helper()
	var fns []fn
	oracle := map[fn]int32{}
	hits := 0
	for i := range fs {
		p, hit := findFn(&x, fns, &fs[i])
		want, seen := oracle[fs[i]]
		if seen {
			hits++
			if hit != want {
				t.Fatalf("fn %d %+v: index hit %d, map %d", i, fs[i], hit, want)
			}
			continue
		}
		if hit >= 0 {
			t.Fatalf("fn %d %+v: index hit %d, map has none", i, fs[i], hit)
		}
		id := int32(len(fns))
		fns = append(fns, fs[i])
		x.Insert(&p, id)
		oracle[fs[i]] = id
	}
	if x.Len() != len(oracle) || hits == 0 {
		t.Fatalf("index holds %d fns, map %d (%d repeats)", x.Len(), len(oracle), hits)
	}
}

// repeatedFns draws n functions from a pool of n/4, so most repeat.
func repeatedFns(rng *rand.Rand, pool []int32, n int) []fn {
	distinct := make([]fn, n/4)
	for i := range distinct {
		distinct[i] = randomFn(rng, pool, rng.Intn(maxSupport+1))
	}
	fs := make([]fn, n)
	for i := range fs {
		fs[i] = distinct[rng.Intn(len(distinct))]
	}
	return fs
}

// TestFnIndexMatchesMap checks the dedup index against a Go map over
// functions whose supports are drawn from ids that share their low 20 bits,
// so two keys differ only in high bytes of their variables or in the table.
func TestFnIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var pool []int32
	for i := int32(0); i < 12; i++ {
		pool = append(pool, i<<20|0x2a)
	}
	checkFnIndexAgainstMap(t, circuit.NewIndex(0), repeatedFns(rng, pool, 40000))
	checkFnIndexAgainstMap(t, circuit.NewIndex(40000), repeatedFns(rng, pool, 40000))
}

// TestFnIndexCollidingSeed puts every function on one probe chain: each
// hit is found only by confirming candidates against fns.
func TestFnIndexCollidingSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checkFnIndexAgainstMap(t, circuit.NewCollidingIndex(0), repeatedFns(rng, []int32{0, 1, 2, 3, 4, 5, 6, 7}, 3000))
}

// TestCompileSeedIndependent compiles kernels twice, each time building
// the netlist (the builders' CSE indexes) and the plan (its dedup index)
// under fresh random seeds, and once more with the plan's index colliding:
// the netlists and plan fingerprints are identical.
func TestCompileSeedIndependent(t *testing.T) {
	for _, name := range []string{"hamming-distance", "parrondo", "kadane"} {
		b, err := vipbench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var nls []*circuit.Netlist
		var prints []string
		for _, newIndex := range []func(int) circuit.Index{circuit.NewIndex, circuit.NewIndex, circuit.NewCollidingIndex} {
			nl, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			p, err := compile(nl, newIndex)
			if err != nil {
				t.Fatal(err)
			}
			nls, prints = append(nls, nl), append(prints, p.Fingerprint())
		}
		for i := 1; i < len(nls); i++ {
			if len(nls[i].Gates) != len(nls[0].Gates) {
				t.Fatalf("%s: build %d has %d gates, build 0 %d", name, i, len(nls[i].Gates), len(nls[0].Gates))
			}
			for g := range nls[i].Gates {
				if nls[i].Gates[g] != nls[0].Gates[g] {
					t.Fatalf("%s: build %d gate %d is %+v, build 0 %+v", name, i, g, nls[i].Gates[g], nls[0].Gates[g])
				}
			}
			if prints[i] != prints[0] {
				t.Fatalf("%s: plan %d fingerprint %s, plan 0 %s", name, i, prints[i], prints[0])
			}
		}
	}
}
