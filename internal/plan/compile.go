package plan

import (
	"fmt"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// maxSupport bounds the functional-deduplication window: a node whose
// boolean function depends on more than this many live frontier nodes is
// treated as opaque (it becomes a frontier variable itself). Six variables
// keep every truth table in one uint64, so sweeping stays a few dozen
// word operations per gate no matter how large the program is.
const maxSupport = 6

// fn is a node's exact boolean function over a small support: vars[:n] is
// the sorted list of frontier exec-node ids, table the truth table with
// bit i holding the function value for the assignment where var j takes
// bit j of i. Entries of vars past n and table bits past 2^n are always
// zero, so two fns are equal as values exactly when they are the same
// function of the same live values — fn is its own dedup key. n is an
// int64 so the struct has no padding and hashes as one block of memory.
type fn struct {
	table uint64
	vars  [maxSupport]int32
	n     int64
}

// identityFn is the function of a frontier variable itself.
func identityFn(id int32) fn { return fn{table: 0b10, vars: [maxSupport]int32{id}, n: 1} }

// varMask[i] is the truth table of variable i itself over maxSupport
// variables: bit m is set exactly when bit i of m is.
var varMask = [maxSupport]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// tableMask returns the valid bits of a k-variable table (all 64 at k = 6,
// where the shift count reaches the word size and yields zero).
func tableMask(k int) uint64 { return uint64(1)<<(uint(1)<<k) - 1 }

// swapVars exchanges variables p < q of a table: one delta swap that trades
// the minterms with x_p=1, x_q=0 for their x_p=0, x_q=1 partners.
func swapVars(t uint64, p, q int) uint64 {
	d := uint(1)<<q - uint(1)<<p
	x := (t ^ t>>d) & varMask[p] &^ varMask[q]
	return t ^ x ^ x<<d
}

// dependsOn reports whether a table depends on variable i: whether any
// minterm with x_i=0 differs from its x_i=1 partner.
func dependsOn(t uint64, i int) bool {
	return (t^t>>(uint(1)<<i))&^varMask[i] != 0
}

// expand lays f's table out over a wider support: its variable j moves to
// position pos[j] (pos strictly increasing), and the table is replicated so
// the positions f does not use are don't-cares.
func (f *fn) expand(pos *[maxSupport]int) uint64 {
	t := f.table
	for w := uint(1) << f.n; w < 64; w <<= 1 {
		t |= t << w
	}
	// Highest variable first: pos[j] ≥ j, and every position above j that
	// is not some later pos[j'] already holds a don't-care.
	for j := int(f.n) - 1; j >= 0; j-- {
		if pos[j] != j {
			t = swapVars(t, j, pos[j])
		}
	}
	return t
}

// combineGate computes eg's function (classic kind or LUT table) over the
// union support of its operands' functions, or ok=false when the union
// exceeds maxSupport. Each operand's table is expanded onto the union
// support, then the gate is applied to whole words, one AND-chain per
// true row of its table. LUT operands contribute their cones exactly like
// classic operands — the symbolic composition is what lets dedup merge a
// LUT with the 2-input cone computing the same function.
func combineGate(eg *execGate, fns []fn) (fn, bool) {
	ops := [logic.MaxLUTArity]*fn{&fns[eg.a], &fns[eg.b]}
	arity, tt := 2, logic.TTOf(eg.kind)
	if eg.arity != 0 {
		arity, tt = int(eg.arity), eg.tt
		if arity == 3 {
			ops[2] = &fns[eg.c]
		}
	}

	// Merge the sorted supports, recording where each operand variable
	// lands in the union.
	var f fn
	var pos [logic.MaxLUTArity][maxSupport]int
	var next [logic.MaxLUTArity]int
	k := 0
	for {
		v, found := int32(0), false
		for oi := 0; oi < arity; oi++ {
			if o := ops[oi]; next[oi] < int(o.n) && (!found || o.vars[next[oi]] < v) {
				v, found = o.vars[next[oi]], true
			}
		}
		if !found {
			break
		}
		if k == maxSupport {
			return fn{}, false
		}
		for oi := 0; oi < arity; oi++ {
			if o := ops[oi]; next[oi] < int(o.n) && o.vars[next[oi]] == v {
				pos[oi][next[oi]] = k
				next[oi]++
			}
		}
		f.vars[k] = v
		k++
	}

	var words [logic.MaxLUTArity]uint64
	for oi := 0; oi < arity; oi++ {
		words[oi] = ops[oi].expand(&pos[oi])
	}
	var table uint64
	for row := 0; row < 1<<arity; row++ {
		if tt>>row&1 == 0 {
			continue
		}
		term := ^uint64(0)
		for oi := 0; oi < arity; oi++ { // operand 0 is the row's most significant bit
			if row>>(arity-1-oi)&1 == 1 {
				term &= words[oi]
			} else {
				term &^= words[oi]
			}
		}
		table |= term
	}
	f.table = table & tableMask(k)
	f.n = int64(k)
	f.dropDummies()
	return f, true
}

// dropDummies removes support variables the table does not depend on —
// this is what folds COPY chains onto their source and constant-valued
// cones onto a single class. A dropped variable is swapped up past the
// ones above it (keeping their order) and then cut off the table.
func (f *fn) dropDummies() {
	for i := 0; i < int(f.n); {
		if dependsOn(f.table, i) {
			i++
			continue
		}
		top := int(f.n) - 1
		for p := i; p < top; p++ {
			f.table = swapVars(f.table, p, p+1)
			f.vars[p] = f.vars[p+1]
		}
		f.vars[top] = 0
		f.n--
		f.table &= tableMask(top)
	}
}

// execGate is one deduplicated gate of the capture: operands are exec-node
// ids (inputs occupy ids 0..NumInputs-1, gates follow in creation order).
// LUT gates carry their table and arity; c is meaningful at arity 3 only.
type execGate struct {
	kind  logic.Kind
	a, b  int32
	c     int32
	tt    logic.TT
	arity uint8
	level int32
}

// needsBootstrap mirrors circuit.Gate.NeedsBootstrap for exec gates.
func (g *execGate) needsBootstrap() bool {
	return g.arity != 0 || g.kind.NeedsBootstrap()
}

// structKey is the hash-consing key of the support-overflow fallback. It
// covers the full gate identity — kind, truth table, arity, and all
// operand ids — so structurally distinct gates never merge.
type structKey struct {
	shape   uint32 // kind | tt<<8 | arity<<16, packed so the key has no padding
	a, b, c int32
}

func newStructKey(eg *execGate) structKey {
	return structKey{
		shape: uint32(eg.kind) | uint32(eg.tt)<<8 | uint32(eg.arity)<<16,
		a:     eg.a, b: eg.b, c: eg.c,
	}
}

// Compile captures nl into an execution plan partitioned for the given
// worker count: validation, the functional-deduplication pass, then level
// layout — arena slot assignment and worker partitioning.
func Compile(nl *circuit.Netlist, workers int) (*Plan, error) {
	start := time.Now()
	if workers < 1 {
		workers = 1
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	for i := range nl.Gates {
		if g := &nl.Gates[i]; !g.IsLUT() && g.Kind >= logic.NumKinds {
			return nil, fmt.Errorf("plan: gate %d has kind %d outside the gate alphabet", nl.GateID(i), g.Kind)
		}
	}

	numInputs := nl.NumInputs
	stats := Stats{LogicalGates: len(nl.Gates)}
	for i := range nl.Gates {
		g := &nl.Gates[i]
		if g.NeedsBootstrap() {
			stats.LogicalBootstraps++
		}
		if g.IsLUT() {
			stats.LogicalLUTs++
		}
	}

	// Pass 1 — functional deduplication. Walk gates in topological order,
	// computing each node's exact function over a bounded support of live
	// exec nodes; nodes with an already-seen function reuse its exec node.
	execOf := make([]int32, nl.NumNodes()+1) // logical node id → exec id
	fns := make([]fn, numInputs, numInputs+len(nl.Gates))
	gates := make([]execGate, 0, len(nl.Gates))
	fnIndex := make(map[fn]int32, numInputs+len(nl.Gates))
	structIndex := make(map[structKey]int32, len(nl.Gates))
	for i := 0; i < numInputs; i++ {
		fns[i] = identityFn(int32(i))
		fnIndex[fns[i]] = int32(i)
		execOf[i+1] = int32(i)
	}
	for i := range nl.Gates {
		g := &nl.Gates[i]
		var eg execGate
		if g.IsLUT() {
			arity := int(g.Arity)
			var eops [logic.MaxLUTArity]int32
			for k := 0; k < arity; k++ {
				eops[k] = execOf[g.Operand(k)]
			}
			// Canonical operand order: sort the exec ids ascending (a
			// stable insertion sort) and permute the table to match
			// (newOps[k] = eops[perm[k]]), so LUTs differing only by
			// operand order merge — the LUT counterpart of the classic
			// SwapInputs canonicalization.
			perm := [logic.MaxLUTArity]int{0, 1, 2}
			for x := 1; x < arity; x++ {
				for y := x; y > 0 && eops[perm[y]] < eops[perm[y-1]]; y-- {
					perm[y], perm[y-1] = perm[y-1], perm[y]
				}
			}
			eg = execGate{tt: g.TT.Permute(arity, perm[:arity]), arity: g.Arity,
				a: eops[perm[0]], b: eops[perm[1]], c: -1}
			if arity >= 3 {
				eg.c = eops[perm[2]]
			}
		} else {
			kind := g.Kind
			ea, eb := execOf[g.A], execOf[g.B]
			// Canonical operand order: f(a,b) = f.SwapInputs()(b,a), so
			// sorting the operands merges commuted duplicates (AND(x,y)
			// with AND(y,x), ANDNY(x,y) with ANDYN(y,x), ...).
			if ea > eb {
				ea, eb = eb, ea
				kind = kind.SwapInputs()
			}
			eg = execGate{kind: kind, a: ea, b: eb, c: -1}
		}
		var id int32
		if f, ok := combineGate(&eg, fns); ok {
			if hit, seen := fnIndex[f]; seen {
				execOf[nl.GateID(i)] = hit
				continue
			}
			id = newExec(&gates, &fns, eg, f)
			fnIndex[f] = id
		} else {
			// Support overflow: fall back to structural hash-consing (the
			// key covers the truth table, so distinct LUTs never merge),
			// and let the new node be a frontier variable for its readers.
			skey := newStructKey(&eg)
			if hit, seen := structIndex[skey]; seen {
				execOf[nl.GateID(i)] = hit
				continue
			}
			id = newExec(&gates, &fns, eg, fn{})
			fns[id] = identityFn(id)
			fnIndex[fns[id]] = id
			structIndex[skey] = id
		}
		execOf[nl.GateID(i)] = id
	}
	stats.ExecGates = len(gates)
	for i := range gates {
		if gates[i].needsBootstrap() {
			stats.ExecBootstraps++
		}
		if gates[i].arity != 0 {
			stats.ExecLUTs++
		}
	}

	// Levelize the exec graph and record, per exec node, the last level
	// that reads it — the compile-time counterpart of the netlist drivers'
	// runtime fan-out refcounts.
	level := make([]int32, numInputs+len(gates)) // inputs at level 0
	lastRead := make([]int32, numInputs+len(gates))
	numLevels := 0
	for i := range gates {
		g := &gates[i]
		l := level[g.a]
		if lb := level[g.b]; lb > l {
			l = lb
		}
		if g.arity >= 3 {
			if lc := level[g.c]; lc > l {
				l = lc
			}
		}
		g.level = l + 1
		level[int32(numInputs)+int32(i)] = g.level
		if int(g.level) > numLevels {
			numLevels = int(g.level)
		}
		if g.level > lastRead[g.a] {
			lastRead[g.a] = g.level
		}
		if g.level > lastRead[g.b] {
			lastRead[g.b] = g.level
		}
		if g.arity >= 3 && g.level > lastRead[g.c] {
			lastRead[g.c] = g.level
		}
	}
	// byLevel(l) lists level l+1's gates in creation order: a counting
	// sort into one flat array.
	levelStart := make([]int32, numLevels+1)
	for i := range gates {
		levelStart[gates[i].level]++
	}
	for l := 1; l <= numLevels; l++ {
		levelStart[l] += levelStart[l-1]
	}
	levelOrder := make([]int32, len(gates))
	fill := make([]int32, numLevels+1) // doubles as freeAt's fill cursor below
	copy(fill, levelStart)
	for i := range gates {
		l := gates[i].level - 1
		levelOrder[fill[l]] = int32(i)
		fill[l]++
	}
	byLevel := func(l int) []int32 { return levelOrder[levelStart[l]:levelStart[l+1]] }

	// Outputs pin their exec nodes for the whole replay (collectors read
	// them after the last level).
	const pinned = int32(1<<31 - 1)
	outputs := make([]Ref, len(nl.Outputs))
	for i, out := range nl.Outputs {
		switch out {
		case circuit.ConstFalse:
			outputs[i] = ConstFalse
		case circuit.ConstTrue:
			outputs[i] = ConstTrue
		default:
			lastRead[execOf[out]] = pinned
		}
	}

	p := &Plan{
		Name:      nl.Name,
		NumInputs: numInputs,
		Workers:   workers,
		levels:    make([]Level, 0, numLevels),
		outputs:   outputs,
		execOf:    execOf, // complete after pass 1; read-only from here on
	}

	// Pass 2 — level layout: arena slot assignment by liveness (a slot
	// frees one level after its last read, so no reuse can race a reader
	// across the level boundary) and per-worker batch partitioning.
	slotOf := make([]int32, len(gates))
	refOf := func(id int32) Ref {
		if id < int32(numInputs) {
			return id
		}
		return int32(numInputs) + slotOf[id-int32(numInputs)]
	}
	// freeAt(l) lists the slots released after level l, in release order:
	// a slot is released after its node's last read, or after its own
	// level when nothing reads it, and never when an output pins it.
	freeLevel := func(gi int32) int32 {
		lr := lastRead[int32(numInputs)+gi]
		if l := gates[gi].level; lr < l {
			lr = l
		}
		return lr
	}
	freeStart := make([]int32, numLevels+2)
	for gi := range gates {
		if lastRead[numInputs+gi] != pinned {
			freeStart[freeLevel(int32(gi))+1]++
		}
	}
	for l := 1; l < len(freeStart); l++ {
		freeStart[l] += freeStart[l-1]
	}
	freed := make([]int32, freeStart[numLevels+1])
	fill = append(fill[:0], freeStart[:numLevels+1]...)
	freeSlots := make([]int32, 0, len(freed))
	arena := 0
	// Per-level scratch for the worker partition: each gate's worker and
	// each worker's load and instruction count.
	workerOf := make([]int32, 0, len(gates))
	load := make([]int, workers)
	count := make([]int, workers)
	for l := 0; l < numLevels; l++ {
		gs := byLevel(l)
		freeSlots = append(freeSlots, freed[freeStart[l]:freeStart[l+1]]...)
		// Slot assignment for this wavefront's outputs.
		for _, gi := range gs {
			var slot int32
			if n := len(freeSlots); n > 0 {
				slot = freeSlots[n-1]
				freeSlots = freeSlots[:n-1]
			} else {
				slot = int32(arena)
				arena++
			}
			slotOf[gi] = slot
			if lastRead[int32(numInputs)+gi] != pinned {
				lr := freeLevel(gi)
				freed[fill[lr]] = slot
				fill[lr]++
			}
		}
		// Partition across workers, heaviest-first greedy on bootstrap
		// weight so no batch ends up with all the expensive gates.
		clear(load)
		clear(count)
		workerOf = workerOf[:0]
		for _, gi := range gs {
			w := 0
			for c := 1; c < workers; c++ {
				if load[c] < load[w] {
					w = c
				}
			}
			cost := 1
			if gates[gi].needsBootstrap() {
				cost = 1024
			}
			load[w] += cost
			count[w]++
			workerOf = append(workerOf, int32(w))
		}
		instrs := make([]Instr, len(gs))
		batches := make([][]Instr, workers)
		off := 0
		for w, n := range count {
			if n > 0 {
				batches[w] = instrs[off : off : off+n]
				off += n
			}
		}
		for k, gi := range gs {
			g := &gates[gi]
			ins := Instr{
				Kind:  g.kind,
				Out:   int32(numInputs) + slotOf[gi],
				A:     refOf(g.a),
				B:     refOf(g.b),
				TT:    g.tt,
				Arity: g.arity,
			}
			if g.arity >= 3 {
				ins.C = refOf(g.c)
			}
			w := workerOf[k]
			batches[w] = append(batches[w], ins)
		}
		p.levels = append(p.levels, Level{Batches: batches})
	}
	for i, out := range nl.Outputs {
		if outputs[i] >= 0 {
			p.outputs[i] = refOf(execOf[out])
		}
	}
	stats.Levels = numLevels
	stats.ArenaSlots = arena
	stats.CompileTime = time.Since(start)
	p.stats = stats
	return p, nil
}

// newExec appends an exec gate and its function, returning the node id.
func newExec(gates *[]execGate, fns *[]fn, eg execGate, f fn) int32 {
	id := int32(len(*fns))
	*gates = append(*gates, eg)
	*fns = append(*fns, f)
	return id
}
