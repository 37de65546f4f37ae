package plan

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/trand"
)

var (
	keyOnce sync.Once
	testSK  *boot.SecretKey
	testCK  *boot.CloudKey
)

func testKeys(t testing.TB) (*boot.SecretKey, *boot.CloudKey) {
	keyOnce.Do(func() {
		rng := trand.NewSeeded([]byte("plan-test-keys"))
		sk, ck, err := boot.GenerateKeys(params.Test(), rng)
		if err != nil {
			panic(err)
		}
		testSK, testCK = sk, ck
	})
	return testSK, testCK
}

// evalPlan interprets the plan over cleartext bits, mirroring exactly what
// replay does over ciphertexts (value table = inputs then arena slots).
func evalPlan(p *Plan, inputs []bool) []bool {
	vals := make([]bool, p.NumInputs+p.stats.ArenaSlots)
	copy(vals, inputs)
	for _, lv := range p.levels {
		for _, ins := range lv {
			if ins.IsLUT() {
				if ins.Arity >= 3 {
					vals[ins.Out] = ins.TT.EvalBits(vals[ins.A], vals[ins.B], vals[ins.C])
				} else {
					vals[ins.Out] = ins.TT.EvalBits(vals[ins.A], vals[ins.B])
				}
				continue
			}
			vals[ins.Out] = ins.Kind.Eval(vals[ins.A], vals[ins.B])
		}
	}
	outs := make([]bool, len(p.outputs))
	for i, ref := range p.outputs {
		switch ref {
		case ConstTrue:
			outs[i] = true
		case ConstFalse:
			outs[i] = false
		default:
			outs[i] = vals[ref]
		}
	}
	return outs
}

func randomNetlist(seed int64, numInputs, numGates int) *circuit.Netlist {
	rng := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder("rand", circuit.NoOptimizations())
	nodes := make([]circuit.NodeID, 0, numInputs+numGates)
	for i := 0; i < numInputs; i++ {
		nodes = append(nodes, b.Input("x"))
	}
	for i := 0; i < numGates; i++ {
		kind := logic.TFHEGates()[rng.Intn(11)]
		x := nodes[rng.Intn(len(nodes))]
		y := nodes[rng.Intn(len(nodes))]
		nodes = append(nodes, b.Gate(kind, x, y))
	}
	for i := 0; i < 4; i++ {
		b.Output("o", nodes[len(nodes)-1-i*2])
	}
	return b.MustBuild()
}

// nandChains builds c parallel NAND chains of the given depth that all
// share the second operand — the shape of the imbalanced benchmark
// netlist. The chain is algebraically periodic with period 2
// (c3 = NAND(NAND(NAND(x,y),y),y) = NAND(x,y)), so functional
// deduplication collapses each chain to two executed bootstraps.
func nandChains(chains, depth int) *circuit.Netlist {
	b := circuit.NewBuilder("nand-chains", circuit.NoOptimizations())
	starts := b.Inputs("x", chains)
	y := b.Input("y")
	for c := 0; c < chains; c++ {
		n := starts[c]
		for d := 0; d < depth; d++ {
			n = b.Gate(logic.NAND, n, y)
		}
		b.Output("o", n)
	}
	return b.MustBuild()
}

// TestPlanMatchesEvaluate checks, exhaustively over all input assignments,
// that compiled plans compute the same function as the netlist reference
// interpreter — this is the end-to-end correctness proof of the functional
// deduplication, liveness analysis and arena assignment.
func TestPlanMatchesEvaluate(t *testing.T) {
	netlists := []*circuit.Netlist{
		randomNetlist(1, 5, 40),
		randomNetlist(2, 6, 80),
		randomNetlist(3, 4, 200),
		nandChains(3, 17),
	}
	for _, nl := range netlists {
		p, err := Compile(nl)
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		for m := 0; m < 1<<nl.NumInputs; m++ {
			in := make([]bool, nl.NumInputs)
			for i := range in {
				in[i] = m>>i&1 == 1
			}
			want, err := nl.Evaluate(in)
			if err != nil {
				t.Fatal(err)
			}
			got := evalPlan(p, in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s input %b output %d: plan %v, reference %v",
						nl.Name, m, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDedupCollapsesPeriodicChains asserts the capture-time win the plan
// backend is built for: the periodic NAND chains execute two bootstraps
// per chain regardless of depth.
func TestDedupCollapsesPeriodicChains(t *testing.T) {
	nl := nandChains(7, 30)
	p, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.LogicalBootstraps != 7*30 {
		t.Fatalf("logical bootstraps = %d, want %d", st.LogicalBootstraps, 7*30)
	}
	if want := 7 * 2; st.ExecBootstraps != want {
		t.Fatalf("exec bootstraps = %d, want %d (period-2 chains)", st.ExecBootstraps, want)
	}
	if st.Levels != 2 {
		t.Fatalf("levels = %d, want 2", st.Levels)
	}
}

// TestArenaLiveness verifies the compile-time slot assignment against the
// refcounting invariants the dynamic executors enforce at runtime: no
// arena slot is overwritten while a previous value in it still has a
// pending reader (barrier granularity: reuse is legal only from the level
// after the last read), and the arena is no larger than the peak number of
// simultaneously live values.
func TestArenaLiveness(t *testing.T) {
	for seed := int64(10); seed < 16; seed++ {
		nl := randomNetlist(seed, 6, 150)
		p, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		type version struct{ write, lastRead int }
		var versions []version
		current := make(map[Ref]int)     // slot ref → live version index
		outputRefs := make(map[Ref]bool) // pinned until the end
		for _, ref := range p.Outputs() {
			if ref >= Ref(p.NumInputs) {
				outputRefs[ref] = true
			}
		}
		for li, lv := range p.Levels() {
			level := li + 1
			written := make(map[Ref]bool)
			for _, ins := range lv {
				for _, op := range [2]Ref{ins.A, ins.B} {
					if op < Ref(p.NumInputs) {
						continue
					}
					v, ok := current[op]
					if !ok {
						t.Fatalf("seed %d level %d reads slot %d before any write", seed, level, op)
					}
					versions[v].lastRead = level
				}
			}
			for _, ins := range lv {
				if written[ins.Out] {
					t.Fatalf("seed %d level %d writes slot %d twice", seed, level, ins.Out)
				}
				written[ins.Out] = true
				if v, ok := current[ins.Out]; ok && versions[v].lastRead >= level {
					t.Fatalf("seed %d level %d reuses slot %d whose value is read at level %d",
						seed, level, ins.Out, versions[v].lastRead)
				}
				versions = append(versions, version{write: level, lastRead: level})
				current[ins.Out] = len(versions) - 1
			}
		}
		// Output slots must still hold their final version (no overwrite
		// was flagged above), and the arena must not exceed peak liveness.
		for ref := range outputRefs {
			versions[current[ref]].lastRead = p.Stats().Levels + 1
		}
		peak := 0
		for l := 1; l <= p.Stats().Levels; l++ {
			live := 0
			for _, v := range versions {
				if v.write <= l && l <= v.lastRead {
					live++
				}
			}
			if live > peak {
				peak = live
			}
		}
		if p.ArenaSlots() > peak {
			t.Fatalf("seed %d arena %d exceeds peak liveness %d", seed, p.ArenaSlots(), peak)
		}
	}
}

// TestReplayHomomorphic runs encrypted replays — unbatched and at kernel
// batch 4 — against the cleartext reference, and checks the runtime reuses
// its arena across replays (the zero-allocation property). Multi-worker
// replay is backend.Shared's job and tested there.
func TestReplayHomomorphic(t *testing.T) {
	sk, ck := testKeys(t)
	nl := randomNetlist(7, 4, 24)
	p, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	eng := gate.NewEngine(ck)
	rt := NewRuntime(ck.Params.LWEDimension)

	encrypt := func(in []bool) []*gate.Ciphertext {
		rng := trand.NewSeeded([]byte{byte(len(in))})
		cts := make([]*gate.Ciphertext, len(in))
		for i, b := range in {
			cts[i] = gate.NewCiphertext(sk.Params)
			gate.Encrypt(cts[i], b, sk, rng)
		}
		return cts
	}
	check := func(in []bool, outs []*gate.Ciphertext) {
		t.Helper()
		want, err := nl.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		for i, ct := range outs {
			if got := gate.Decrypt(ct, sk); got != want[i] {
				t.Fatalf("output %d: got %v want %v", i, got, want[i])
			}
		}
	}

	for trial := 0; trial < 3; trial++ {
		in := []bool{trial&1 == 1, trial&2 != 0, true, trial == 0}
		outs, err := Replay(p, NewInterp(eng, 1), encrypt(in), rt)
		if err != nil {
			t.Fatal(err)
		}
		check(in, outs)
	}
	hw := rt.HighWater()
	if hw == 0 || hw > p.ArenaSlots() {
		t.Fatalf("high water %d outside (0, %d]", hw, p.ArenaSlots())
	}

	// Batched kernel dispatches on the same runtime.
	in := []bool{true, false, true, true}
	it := NewInterp(eng, 4)
	outs, err := Replay(p, it, encrypt(in), rt)
	if err != nil {
		t.Fatal(err)
	}
	check(in, outs)
	if st := p.Stats(); it.N.Batches == 0 || it.N.Bootstraps != int64(st.ExecBootstraps) || it.N.Instrs != int64(st.ExecGates) {
		t.Fatalf("interpreter counted %+v, plan executes %+v", it.N, st)
	}
	if rt.HighWater() != hw {
		t.Fatalf("high water moved from %d to %d across replays", hw, rt.HighWater())
	}
}

// TestReplayEdgeCases covers constant and pass-through outputs and input
// validation.
func TestReplayEdgeCases(t *testing.T) {
	sk, ck := testKeys(t)
	b := circuit.NewBuilder("edges", circuit.NoOptimizations())
	x := b.Input("x")
	y := b.Input("y")
	n := b.Gate(logic.XNOR, x, x) // constant true after dedup
	b.Output("one", n)
	b.Output("echo", b.Gate(logic.COPY, y, y))
	b.Output("cf", circuit.ConstFalse)
	nl := b.MustBuild()

	p, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(gate.NewEngine(ck), 1)
	rt := NewRuntime(ck.Params.LWEDimension)
	rng := trand.NewSeeded([]byte("edge"))
	in := make([]*gate.Ciphertext, 2)
	for i, bit := range []bool{true, false} {
		in[i] = gate.NewCiphertext(sk.Params)
		gate.Encrypt(in[i], bit, sk, rng)
	}
	outs, err := Replay(p, it, in, rt)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, false} {
		if got := gate.Decrypt(outs[i], sk); got != want {
			t.Fatalf("output %d: got %v want %v", i, got, want)
		}
	}

	if _, err := Replay(p, it, in[:1], rt); err == nil {
		t.Fatal("short inputs not rejected")
	}
}

// TestRuntimeReset verifies Reset releases slots for rebinding to another
// plan.
func TestRuntimeReset(t *testing.T) {
	rt := NewRuntime(4)
	if err := rt.Bind(&Plan{stats: Stats{ArenaSlots: 3}}, nil); err != nil {
		t.Fatal(err)
	}
	rt.vals[0] = rt.pool.Get()
	rt.vals[2] = rt.pool.Get()
	if rt.HighWater() != 2 {
		t.Fatalf("high water = %d, want 2", rt.HighWater())
	}
	if live := rt.pool.Live(); live != 2 {
		t.Fatalf("live = %d, want 2", live)
	}
	rt.Reset()
	if live := rt.pool.Live(); live != 0 {
		t.Fatalf("reset left %d samples live, want 0", live)
	}
	if rt.HighWater() != 2 {
		t.Fatalf("high water after reset = %d, want 2", rt.HighWater())
	}
}

// TestRuntimeFill pins Fill, the way a cluster worker installs the
// router's values: the runtime keeps nothing of the value it is given, a
// refill reuses the slot's ciphertext, Reset returns filled slots, and an
// input slot, a slot outside the table, a nil value or a wrong dimension
// is refused without taking a ciphertext.
func TestRuntimeFill(t *testing.T) {
	rt := NewRuntime(4)
	rt.Shape(1, 2)
	v := lwe.NewSample(4)
	v.B = 7
	if err := rt.Fill(1, v); err != nil {
		t.Fatal(err)
	}
	got := rt.Value(1)
	if got == nil || got == v {
		t.Fatal("Fill must copy into a ciphertext the runtime owns")
	}
	v.B = 9
	if got.B != 7 {
		t.Fatal("a change to the filled value reached the runtime")
	}
	if err := rt.Fill(1, v); err != nil {
		t.Fatal(err)
	}
	if rt.Value(1) != got || got.B != 9 || rt.pool.Live() != 1 {
		t.Fatalf("refill: same ciphertext %v, B = %d, live = %d; want true, 9, 1", rt.Value(1) == got, got.B, rt.pool.Live())
	}
	for _, tc := range []struct {
		name string
		slot int
		v    *lwe.Sample
	}{
		{"input slot", 0, v},
		{"past the table", 3, v},
		{"negative slot", -1, v},
		{"nil value", 2, nil},
		{"wrong dimension", 2, lwe.NewSample(5)},
	} {
		if err := rt.Fill(tc.slot, tc.v); err == nil {
			t.Errorf("%s: Fill accepted", tc.name)
		}
	}
	if err := rt.Fill(2, nil); !errors.Is(err, exec.ErrNilInput) {
		t.Errorf("nil value: %v, want ErrNilInput", err)
	}
	if live := rt.pool.Live(); live != 1 || rt.Value(2) != nil {
		t.Fatalf("refused fills left %d samples live (want 1) or wrote slot 2", live)
	}
	rt.Reset()
	if live := rt.pool.Live(); live != 0 || rt.Value(1) != nil {
		t.Fatalf("reset left %d samples live, want 0", live)
	}
}

// TestCutProperties checks plan.Cut on random levels — every mix of
// bootstrapped and free instructions, clustered or spread — against its
// contract: min(n, len) non-empty parts that concatenate to the level in
// order, with bootstrap counts that differ by at most one.
func TestCutProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 2000; trial++ {
		level := make([]Instr, rng.Intn(40))
		pBoot := rng.Float64()
		for i := range level {
			level[i] = Instr{Kind: logic.NOT, Out: Ref(i)}
			if rng.Float64() < pBoot {
				level[i].Kind = logic.NAND
			}
		}
		n := 1 + rng.Intn(8)
		parts := Cut(level, n)
		if len(parts) != min(n, len(level)) {
			t.Fatalf("trial %d: %d parts of a %d-instruction level at n=%d", trial, len(parts), len(level), n)
		}
		var joined []Instr
		lo, hi := len(level), 0
		for j, part := range parts {
			if len(part) == 0 {
				t.Fatalf("trial %d: part %d is empty", trial, j)
			}
			joined = append(joined, part...)
			boots := 0
			for _, ins := range part {
				if ins.NeedsBootstrap() {
					boots++
				}
			}
			lo, hi = min(lo, boots), max(hi, boots)
		}
		if len(joined) != len(level) || (len(level) > 0 && !reflect.DeepEqual(joined, level)) {
			t.Fatalf("trial %d: parts do not concatenate to the level", trial)
		}
		if len(parts) > 0 && hi-lo > 1 {
			t.Fatalf("trial %d: part bootstrap counts span %d..%d", trial, lo, hi)
		}
	}
}
