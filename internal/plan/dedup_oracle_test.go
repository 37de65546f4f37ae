package plan

import (
	"math/rand"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// The minterm-at-a-time functional dedup that Compile used before fn
// became a fixed-size value composed with variable masks. It is kept here,
// unchanged, as the oracle the bit-parallel code is checked against.

// oracleFn is the old function form: a slice support and a table.
type oracleFn struct {
	vars  []int32
	table uint64
}

// key serializes the function into a map key: the support ids then the
// table.
func (f oracleFn) key() string {
	b := make([]byte, 0, 8+4*len(f.vars))
	for _, v := range f.vars {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	b = append(b, byte(f.table), byte(f.table>>8), byte(f.table>>16), byte(f.table>>24),
		byte(f.table>>32), byte(f.table>>40), byte(f.table>>48), byte(f.table>>56))
	return string(b)
}

// oracleCombineGate computes the gate's function over the union support of
// its operand functions by evaluating every minterm through
// circuit.Gate.Eval, or ok=false when the union exceeds maxSupport.
func oracleCombineGate(g *circuit.Gate, ops []oracleFn) (oracleFn, bool) {
	union := make([]int32, 0, maxSupport)
	for _, of := range ops {
		merged := make([]int32, 0, maxSupport)
		i, j := 0, 0
		for i < len(union) || j < len(of.vars) {
			switch {
			case j >= len(of.vars) || (i < len(union) && union[i] < of.vars[j]):
				merged = append(merged, union[i])
				i++
			case i >= len(union) || of.vars[j] < union[i]:
				merged = append(merged, of.vars[j])
				j++
			default:
				merged = append(merged, union[i])
				i++
				j++
			}
			if len(merged) > maxSupport {
				return oracleFn{}, false
			}
		}
		union = merged
	}
	var pos [logic.MaxLUTArity][maxSupport]int
	for oi, of := range ops {
		for i, v := range of.vars {
			for u, uv := range union {
				if uv == v {
					pos[oi][i] = u
				}
			}
		}
	}
	k := len(union)
	var table uint64
	for m := 0; m < 1<<k; m++ {
		var vals [logic.MaxLUTArity]bool
		for oi, of := range ops {
			var idx int
			for i := range of.vars {
				idx |= int(m>>pos[oi][i]&1) << i
			}
			vals[oi] = of.table>>idx&1 == 1
		}
		if g.Eval(vals) {
			table |= uint64(1) << m
		}
	}
	return oracleFn{vars: union, table: table}.dropDummies(), true
}

// dropDummies removes support variables the table does not depend on.
func (f oracleFn) dropDummies() oracleFn {
	for i := 0; i < len(f.vars); {
		k := len(f.vars)
		if oracleDependsOn(f.table, k, i) {
			i++
			continue
		}
		var nt uint64
		for m := 0; m < 1<<(k-1); m++ {
			src := m&(1<<i-1) | (m>>i)<<(i+1)
			nt |= f.table >> src & 1 << m
		}
		f.table = nt
		f.vars = append(f.vars[:i], f.vars[i+1:]...)
	}
	return f
}

// oracleDependsOn reports whether the k-variable table depends on
// variable i.
func oracleDependsOn(table uint64, k, i int) bool {
	for m := 0; m < 1<<k; m++ {
		if m>>i&1 == 0 && table>>m&1 != table>>(m|1<<i)&1 {
			return true
		}
	}
	return false
}

// toOracle converts a fixed-size fn to the oracle's form.
func toOracle(f fn) oracleFn {
	return oracleFn{vars: append([]int32(nil), f.vars[:f.n]...), table: f.table}
}

// randomFn draws a canonical function (no dummy variables) over n
// distinct ids from pool, the way Compile's fns always are.
func randomFn(rng *rand.Rand, pool []int32, n int) fn {
	perm := rng.Perm(len(pool))[:n]
	vars := make([]int32, n)
	for i, p := range perm {
		vars[i] = pool[p]
	}
	for i := 1; i < n; i++ { // sort ascending
		for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	of := oracleFn{vars: vars, table: rng.Uint64() & tableMask(n)}.dropDummies()
	var f fn
	f.n = int64(len(of.vars))
	copy(f.vars[:], of.vars)
	f.table = of.table
	return f
}

// TestCombineGateMatchesOracle drives the bit-parallel combineGate and the
// minterm oracle with random operand functions: supports of 0–6 variables
// drawn from a small pool (so operands share variables and unions cross
// the 6→7 overflow boundary), every classic kind and LUTs of arity 2 and 3
// with permuted tables. Both must agree on the overflow verdict and, when
// there is none, on the exact (vars, table).
func TestCombineGateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := []int32{0, 1, 2, 5, 9, 17, 40, 41, 300, 1 << 20, 1<<31 - 2}
	overflows, fits := 0, 0
	for trial := 0; trial < 200000; trial++ {
		var eg execGate
		arity := 2
		switch trial % 4 {
		case 0, 1:
			eg.kind = logic.Kind(rng.Intn(logic.NumKinds))
		case 2:
			eg.arity, eg.tt = 2, logic.TT(rng.Intn(16))
		case 3:
			arity = 3
			perm := rng.Perm(3)
			eg.arity, eg.tt = 3, logic.TT(rng.Intn(256)).Permute(3, perm)
		}
		fns := make([]fn, arity)
		ofns := make([]oracleFn, arity)
		for i := range fns {
			fns[i] = randomFn(rng, pool, rng.Intn(maxSupport+1))
			ofns[i] = toOracle(fns[i])
		}
		eg.a, eg.b, eg.c = 0, 1, -1
		if arity == 3 {
			eg.c = 2
		}
		if eg.arity == 0 && rng.Intn(8) == 0 { // unary use: both operands the same node
			eg.b = 0
			ofns[1] = ofns[0]
		}
		got, ok := combineGate(&eg, fns)
		cg := circuit.Gate{Kind: eg.kind, TT: eg.tt, Arity: eg.arity}
		want, wantOK := oracleCombineGate(&cg, ofns)
		if ok != wantOK {
			t.Fatalf("trial %d: overflow verdict %v, oracle %v (ops %+v, gate %+v)", trial, !ok, !wantOK, ofns, cg)
		}
		if !ok {
			overflows++
			continue
		}
		fits++
		if g := toOracle(got); g.key() != want.key() {
			t.Fatalf("trial %d: combineGate %v/%#x, oracle %v/%#x (ops %+v, gate %+v)",
				trial, g.vars, g.table, want.vars, want.table, ofns, cg)
		}
		for i := got.n; i < maxSupport; i++ {
			if got.vars[i] != 0 {
				t.Fatalf("trial %d: vars tail not zeroed: %v (n=%d)", trial, got.vars, got.n)
			}
		}
	}
	if overflows < 1000 || fits < 1000 {
		t.Fatalf("draw too lopsided: %d overflows, %d fits", overflows, fits)
	}
}

// TestFnKeyMatchesOracleKey checks the key's exactness: two fixed-size
// fns are equal as values exactly when the oracle's string keys of the
// same functions are equal.
func TestFnKeyMatchesOracleKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := []int32{0, 1, 2, 3, 1<<31 - 2}
	var fs []fn
	for i := 0; i < 600; i++ {
		fs = append(fs, randomFn(rng, pool, rng.Intn(len(pool)+1)))
	}
	fs = append(fs, identityFn(0), identityFn(1), fn{}, fn{table: 1})
	equal := 0
	for i := range fs {
		for j := range fs {
			same := fs[i] == fs[j]
			if same != (toOracle(fs[i]).key() == toOracle(fs[j]).key()) {
				t.Fatalf("fn %+v vs %+v: value equality %v disagrees with the oracle key", fs[i], fs[j], same)
			}
			if same && i != j {
				equal++
			}
		}
	}
	if equal == 0 {
		t.Fatal("no distinct draws compared equal; the check saw only one side")
	}
}

// layeredNetlist builds depth levels of width gates each over width
// inputs, gate i of a level reading gates i and i+1 of the one below with
// a kind that varies along the level, so nothing deduplicates and every
// level is one plan level.
func layeredNetlist(width, depth int) *circuit.Netlist {
	b := circuit.NewBuilder("layered", circuit.NoOptimizations())
	prev := b.Inputs("x", width)
	kinds := []logic.Kind{logic.XOR, logic.AND, logic.OR, logic.NAND, logic.ANDYN}
	for d := 0; d < depth; d++ {
		next := make([]circuit.NodeID, width)
		for i := range next {
			next[i] = b.Gate(kinds[(i+d)%len(kinds)], prev[i], prev[(i+1)%width])
		}
		prev = next
	}
	b.OutputBus("y", prev)
	return b.MustBuild()
}

// TestCompileAllocationsIndependentOfWidth checks that Compile allocates
// per program, never per gate or per level: doubling the width of a
// fixed-depth netlist leaves its allocation count unchanged, and the count
// is a fixed part. (The widths keep every dedup table within one map
// table; past that, Go maps allocate one more table per ~900 entries.)
func TestCompileAllocationsIndependentOfWidth(t *testing.T) {
	const depth = 8
	allocs := func(width int) float64 {
		nl := layeredNetlist(width, depth)
		return testing.AllocsPerRun(5, func() {
			p, err := Compile(nl)
			if err != nil {
				t.Fatal(err)
			}
			if p.Stats().Levels != depth {
				t.Fatalf("width %d: %d levels, want %d", width, p.Stats().Levels, depth)
			}
		})
	}
	narrow, wide := allocs(24), allocs(48)
	t.Logf("%.0f allocations at width 24, %.0f at width 48", narrow, wide)
	if wide > narrow {
		t.Errorf("%.0f allocations at width 48, %.0f at width 24", wide, narrow)
	}
	if limit := 40.0; narrow > limit {
		t.Errorf("%.0f allocations for %d levels, want ≤ %.0f", narrow, depth, limit)
	}
}
