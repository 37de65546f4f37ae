package plan

import (
	"fmt"
	"sort"
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

// fn is a node's exact boolean function over a small support: vars is the
// sorted list of frontier exec-node ids, table the truth table with bit i
// holding the function value for the assignment where var j takes bit j
// of i.
type fn struct {
	vars  []int32
	table uint64
}

// identityFn is the function of a frontier variable itself.
func identityFn(id int32) fn { return fn{vars: []int32{id}, table: 0b10} }

// key serializes the function into a map key: the support ids then the
// table. Two nodes with equal keys compute the same boolean function of
// the same live values and are therefore interchangeable.
func (f fn) key() string {
	b := make([]byte, 0, 8+4*len(f.vars))
	for _, v := range f.vars {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	b = append(b, byte(f.table), byte(f.table>>8), byte(f.table>>16), byte(f.table>>24),
		byte(f.table>>32), byte(f.table>>40), byte(f.table>>48), byte(f.table>>56))
	return string(b)
}

// combineGate computes the gate's function (classic kind or LUT table)
// over the union support of its operand functions, or ok=false when the
// union exceeds maxSupport. LUT operands contribute their cones exactly
// like classic operands — the symbolic composition is what lets dedup
// merge a LUT with the 2-input cone computing the same function.
func combineGate(g *circuit.Gate, ops []fn) (fn, bool) {
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
				return fn{}, false
			}
		}
		union = merged
	}
	// pos[oi][i] is the union position of ops[oi].vars[i].
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
	return fn{vars: union, table: table}.dropDummies(), true
}

// dropDummies removes support variables the table does not depend on —
// this is what folds COPY chains onto their source and constant-valued
// cones onto a single class.
func (f fn) dropDummies() fn {
	for i := 0; i < len(f.vars); {
		k := len(f.vars)
		if dependsOn(f.table, k, i) {
			i++
			continue
		}
		// Project the table onto var i = 0 and drop the variable.
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

// dependsOn reports whether the k-variable table depends on variable i.
func dependsOn(table uint64, k, i int) bool {
	for m := 0; m < 1<<k; m++ {
		if m>>i&1 == 0 && table>>m&1 != table>>(m|1<<i)&1 {
			return true
		}
	}
	return false
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
	kind    logic.Kind
	tt      logic.TT
	arity   uint8
	a, b, c int32
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
	var gates []execGate
	fnIndex := make(map[string]int32, numInputs+len(nl.Gates))
	structIndex := make(map[structKey]int32, len(nl.Gates))
	for i := 0; i < numInputs; i++ {
		fns[i] = identityFn(int32(i))
		fnIndex[fns[i].key()] = int32(i)
		execOf[i+1] = int32(i)
	}
	for i := range nl.Gates {
		g := &nl.Gates[i]
		var eg execGate
		var opFns []fn
		if g.IsLUT() {
			arity := int(g.Arity)
			eops := make([]int32, arity)
			for k := 0; k < arity; k++ {
				eops[k] = execOf[g.Operand(k)]
			}
			// Canonical operand order: sort the exec ids ascending and
			// permute the table to match (newOps[k] = eops[perm[k]]), so
			// LUTs differing only by operand order merge — the LUT
			// counterpart of the classic SwapInputs canonicalization.
			perm := make([]int, arity)
			for k := range perm {
				perm[k] = k
			}
			sort.Slice(perm, func(x, y int) bool { return eops[perm[x]] < eops[perm[y]] })
			sorted := make([]int32, arity)
			for k, pk := range perm {
				sorted[k] = eops[pk]
			}
			eg = execGate{tt: g.TT.Permute(arity, perm), arity: g.Arity, a: sorted[0], b: sorted[1], c: -1}
			if arity >= 3 {
				eg.c = sorted[2]
			}
			opFns = make([]fn, arity)
			for k, e := range sorted {
				opFns[k] = fns[e]
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
			opFns = []fn{fns[ea], fns[eb]}
		}
		cg := circuit.Gate{Kind: eg.kind, TT: eg.tt, Arity: eg.arity}
		var id int32
		if f, ok := combineGate(&cg, opFns); ok {
			if hit, seen := fnIndex[f.key()]; seen {
				execOf[nl.GateID(i)] = hit
				continue
			}
			id = newExec(&gates, &fns, eg, f)
			fnIndex[f.key()] = id
		} else {
			// Support overflow: fall back to structural hash-consing (the
			// key covers the truth table, so distinct LUTs never merge),
			// and let the new node be a frontier variable for its readers.
			skey := structKey{kind: eg.kind, tt: eg.tt, arity: eg.arity, a: eg.a, b: eg.b, c: eg.c}
			if hit, seen := structIndex[skey]; seen {
				execOf[nl.GateID(i)] = hit
				continue
			}
			id = newExec(&gates, &fns, eg, fn{})
			fns[id] = identityFn(id)
			fnIndex[fns[id].key()] = id
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
	// that reads it — the compile-time counterpart of the async executor's
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
	byLevel := make([][]int32, numLevels)
	for i := range gates {
		l := gates[i].level - 1
		byLevel[l] = append(byLevel[l], int32(i))
	}

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
	var freeSlots []int32
	freeAt := make([][]int32, numLevels+1) // level → slots released after it
	arena := 0
	for l, gs := range byLevel {
		lvl := int32(l + 1)
		for _, slot := range freeAt[l] {
			freeSlots = append(freeSlots, slot)
		}
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
			if lr := lastRead[int32(numInputs)+gi]; lr != pinned {
				if lr < lvl { // no reader at all: dead exec node (outputs only)
					lr = lvl
				}
				freeAt[lr] = append(freeAt[lr], slot)
			}
		}
		// Partition across workers, heaviest-first greedy on bootstrap
		// weight so no batch ends up with all the expensive gates.
		batches := make([][]Instr, workers)
		load := make([]int, workers)
		for _, gi := range gs {
			g := gates[gi]
			w := 0
			for c := 1; c < workers; c++ {
				if load[c] < load[w] {
					w = c
				}
			}
			cost := 1
			if g.needsBootstrap() {
				cost = 1024
			}
			load[w] += cost
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
