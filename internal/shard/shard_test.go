package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/trand"
	"pytfhe/internal/vipbench"
)

var (
	keyOnce sync.Once
	testSK  *boot.SecretKey
	testCK  *boot.CloudKey
)

func keys(t testing.TB) (*boot.SecretKey, *boot.CloudKey) {
	keyOnce.Do(func() {
		rng := trand.NewSeeded([]byte("shard-test-keys"))
		sk, ck, err := boot.GenerateKeys(params.Test(), rng)
		if err != nil {
			panic(err)
		}
		testSK, testCK = sk, ck
	})
	return testSK, testCK
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

// evalSharded interprets the decomposition over cleartext bits, emulating
// the coordinator's level-synchronized router exactly: all fills for a
// level install before any shard executes it, exports gather afterwards.
func evalSharded(s *Sharding, inputs []bool) []bool {
	vals := make([][]bool, len(s.Shards))
	for w, sh := range s.Shards {
		vals[w] = make([]bool, sh.Slots)
	}
	exports := make([]bool, s.CutEdges)
	for li := range s.Plan.Levels() {
		for w := range s.Shards {
			for _, f := range s.Fills[w][li] {
				if f.Input >= 0 {
					vals[w][f.Slot] = inputs[f.Input]
				} else {
					vals[w][f.Slot] = exports[f.Export]
				}
			}
		}
		for w, sh := range s.Shards {
			for _, ins := range sh.Levels[li] {
				if ins.IsLUT() {
					if ins.Arity >= 3 {
						vals[w][ins.Out] = ins.TT.EvalBits(vals[w][ins.A], vals[w][ins.B], vals[w][ins.C])
					} else {
						vals[w][ins.Out] = ins.TT.EvalBits(vals[w][ins.A], vals[w][ins.B])
					}
					continue
				}
				vals[w][ins.Out] = ins.Kind.Eval(vals[w][ins.A], vals[w][ins.B])
			}
			for k, ref := range sh.Exports[li] {
				exports[s.ExportIDs[w][li][k]] = vals[w][ref]
			}
		}
	}
	outs := make([]bool, len(s.Outputs))
	for i, src := range s.Outputs {
		switch {
		case src.Input >= 0:
			outs[i] = inputs[src.Input]
		case src.Export >= 0:
			outs[i] = exports[src.Export]
		default:
			outs[i] = src.Const == plan.ConstTrue
		}
	}
	return outs
}

// TestSplitMatchesNetlist is the cleartext end-to-end proof: for every
// netlist × shard count, the routed decomposition computes
// the netlist's function on every input assignment, and Verify agrees.
func TestSplitMatchesNetlist(t *testing.T) {
	netlists := []*circuit.Netlist{
		randomNetlist(1, 5, 40),
		randomNetlist(2, 6, 80),
		randomNetlist(3, 4, 200),
		nandChains(3, 17),
	}
	for _, nl := range netlists {
		p, err := plan.Compile(nl)
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		for _, n := range []int{1, 2, 3, 4, 7} {
			s, err := Split(p, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", nl.Name, n, err)
			}
			if got := len(s.Shards); got != n {
				t.Fatalf("%s: %d shards, want %d", nl.Name, got, n)
			}
			if _, err := Verify(p, s); err != nil {
				t.Fatalf("%s n=%d: %v", nl.Name, n, err)
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
				got := evalSharded(s, in)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d input %b output %d: sharded %v, reference %v",
							nl.Name, n, m, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCutSmallerThanGates pins the wire-traffic win the subsystem exists
// for: the per-run boundary traffic (cut edges + input fills) must be
// strictly below what the legacy gate dispatcher ships (three ciphertexts
// per executed gate).
func TestCutSmallerThanGates(t *testing.T) {
	nl := nandChains(7, 30)
	p, err := plan.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Split(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Verify(p, s)
	if err != nil {
		t.Fatal(err)
	}
	gateTraffic := 3 * p.Stats().ExecGates
	if boundary := report.CutEdges + report.Fills; boundary >= gateTraffic {
		t.Fatalf("boundary traffic %d (cut %d + fills %d) not below gate dispatch %d",
			boundary, report.CutEdges, report.Fills, gateTraffic)
	}
}

// TestSplitCutsEveryKernel splits every VIP-Bench kernel two and four
// ways, verifies each decomposition, and pins the boundary traffic of two
// of them. The cut (plan.Cut: contiguous runs with equal bootstrap counts)
// keeps neighbouring instructions, which share operands, on one shard;
// the compile-time greedy partition it replaced interleaved them and
// shipped 3933 (dot-product) and 416 (hamming-distance) boundary
// ciphertexts per run at n = 2.
func TestSplitCutsEveryKernel(t *testing.T) {
	pinned := map[string]int{"dot-product": 186, "hamming-distance": 147}
	for _, b := range vipbench.All() {
		nl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4} {
			s, err := Split(p, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", b.Name, n, err)
			}
			if _, err := Verify(p, s); err != nil {
				t.Fatalf("%s n=%d: %v", b.Name, n, err)
			}
			if want, ok := pinned[b.Name]; ok && n == 2 && s.CutEdges != want {
				t.Errorf("%s n=2: %d cut edges, pinned %d", b.Name, s.CutEdges, want)
			}
		}
	}
}

// TestShardHashes: the content hash is deterministic across splits, keyed
// by decomposition shape, and distinct across shards.
func TestShardHashes(t *testing.T) {
	p, err := plan.Compile(nandChains(3, 9))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Split(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Split(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for w := range s1.Shards {
		if s1.Shards[w].Hash != s2.Shards[w].Hash {
			t.Fatalf("shard %d hash differs across identical splits", w)
		}
		if s1.Shards[w].Hash == "" || s1.Shards[w].PlanHash != p.Fingerprint() {
			t.Fatalf("shard %d hash/planhash malformed: %+v", w, s1.Shards[w])
		}
	}
	if s1.Shards[0].Hash == s1.Shards[1].Hash {
		t.Fatal("distinct shards share a content hash")
	}
	s3, err := Split(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Shards[0].Hash == s1.Shards[0].Hash {
		t.Fatal("shard 0 hash identical across different shard counts")
	}
}

// TestVerifyCatchesSeededDefects mutates sound decompositions one defect
// at a time and requires Verify to reject each with the right class.
func TestVerifyCatchesSeededDefects(t *testing.T) {
	build := func() (*plan.Plan, *Sharding) {
		p, err := plan.Compile(randomNetlist(5, 6, 60))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Split(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		return p, s
	}
	findFill := func(s *Sharding) (w, li, k int) {
		for w := range s.Fills {
			for li := range s.Fills[w] {
				for k, f := range s.Fills[w][li] {
					if f.Export >= 0 {
						return w, li, k
					}
				}
			}
		}
		t.Fatal("no boundary fill in decomposition")
		return 0, 0, 0
	}
	t.Run("rewired-fill", func(t *testing.T) {
		p, s := build()
		w, li, k := findFill(s)
		s.Fills[w][li][k].Export = (s.Fills[w][li][k].Export + 1) % int32(s.CutEdges)
		if _, err := Verify(p, s); err == nil {
			t.Fatal("verify accepted a rewired boundary fill")
		}
	})
	t.Run("dropped-fill", func(t *testing.T) {
		p, s := build()
		w, li, k := findFill(s)
		s.Fills[w][li] = append(s.Fills[w][li][:k], s.Fills[w][li][k+1:]...)
		if _, err := Verify(p, s); !errors.Is(err, ErrRouting) && !errors.Is(err, ErrSemantics) {
			t.Fatalf("dropped fill: got %v, want routing or semantics error", err)
		}
	})
	t.Run("dropped-refill", func(t *testing.T) {
		// A refill targets a slot that already holds an older value of the
		// same plan ref — the shard's own write or an earlier fill — so
		// dropping it leaves the slot defined but stale: only the operand
		// comparison can catch it. Drop each such refill in turn.
		_, s := build()
		type at struct{ w, li, k int }
		var refills []at
		for w, sh := range s.Shards {
			touched := make([]bool, sh.Slots)
			for li := range sh.Levels {
				for k, f := range s.Fills[w][li] {
					if touched[f.Slot] {
						refills = append(refills, at{w, li, k})
					}
					touched[f.Slot] = true
				}
				for _, ins := range sh.Levels[li] {
					touched[ins.Out] = true
				}
			}
		}
		if len(refills) == 0 {
			t.Fatal("no refill in decomposition")
		}
		for _, rf := range refills {
			p, s := build()
			fs := s.Fills[rf.w][rf.li]
			s.Fills[rf.w][rf.li] = append(fs[:rf.k:rf.k], fs[rf.k+1:]...)
			if _, err := Verify(p, s); !errors.Is(err, ErrRouting) {
				t.Fatalf("dropped refill of shard %d level %d: got %v, want routing error", rf.w, rf.li, err)
			}
		}
	})
	t.Run("mutated-kind", func(t *testing.T) {
		// Flip one instruction's kind at a time (rebuilding between
		// attempts); at least one flip must land on a live instruction and
		// trip the semantic comparison.
		p, s := build()
		for w := range s.Shards {
			for li := range s.Shards[w].Levels {
				for k := range s.Shards[w].Levels[li] {
					p2, s2 := p, s
					if w+li+k > 0 {
						p2, s2 = build()
					}
					ins := &s2.Shards[w].Levels[li][k]
					if ins.Kind == logic.NAND {
						ins.Kind = logic.NOR
					} else {
						ins.Kind = logic.NAND
					}
					if _, err := Verify(p2, s2); errors.Is(err, ErrSemantics) {
						return
					}
				}
			}
		}
		t.Fatal("no kind flip tripped ErrSemantics")
	})
	t.Run("swapped-export-ids", func(t *testing.T) {
		p, s := build()
		for w := range s.ExportIDs {
			for li := range s.ExportIDs[w] {
				if len(s.ExportIDs[w][li]) >= 2 {
					ids := s.ExportIDs[w][li]
					ids[0], ids[1] = ids[1], ids[0]
					if _, err := Verify(p, s); err == nil {
						t.Fatal("verify accepted swapped export ids")
					}
					return
				}
			}
		}
		t.Skip("no level exports two values")
	})
	t.Run("truncated-level", func(t *testing.T) {
		p, s := build()
		for _, sh := range s.Shards {
			for li := range sh.Levels {
				if len(sh.Levels[li]) > 0 {
					sh.Levels[li] = sh.Levels[li][:len(sh.Levels[li])-1]
					if _, err := Verify(p, s); !errors.Is(err, ErrShape) && !errors.Is(err, ErrRouting) {
						t.Fatalf("truncated level: got %v, want shape or routing error", err)
					}
					return
				}
			}
		}
	})
}

// runOnShared evaluates nl split two ways over real ciphertexts, the way
// cluster workers and their router do: one plan.Runtime per shard, whose
// slots take copies of the router's fills, every shard level run on a
// backend.Shared, and every export copied off its producer as the wire
// would. The decrypted outputs must match nl.Evaluate for each input word
// in ms, and the executor must have counted exactly the plan's bootstraps.
func runOnShared(t *testing.T, nl *circuit.Netlist, ms []uint64) {
	t.Helper()
	sk, ck := keys(t)
	p, err := plan.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Split(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ex := backend.NewShared(2, backend.DefaultBatch)
	defer ex.Close()
	key, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	dim := ck.Params.LWEDimension
	rts := make([]*plan.Runtime, len(s.Shards))
	for w, sh := range s.Shards {
		rts[w] = plan.NewRuntime(dim)
		rts[w].Shape(0, sh.Slots)
	}
	for _, m := range ms {
		inBits := make([]bool, nl.NumInputs)
		for i := range inBits {
			inBits[i] = m>>uint(i)&1 == 1
		}
		inputs := backend.EncryptInputs(sk, inBits)
		for _, rt := range rts {
			rt.Reset()
		}
		exports := make([]*lwe.Sample, s.CutEdges)
		for li := range p.Levels() {
			for w, sh := range s.Shards {
				for _, f := range s.Fills[w][li] {
					var v *lwe.Sample
					if f.Input >= 0 {
						v = inputs[f.Input]
					} else {
						v = exports[f.Export]
					}
					if err := rts[w].Fill(int(f.Slot), v); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := ex.Run(context.Background(), key, sh.Levels[li:li+1], rts[w]); err != nil {
					t.Fatal(err)
				}
				for k, ref := range sh.Exports[li] {
					v := lwe.NewSample(dim)
					v.Copy(rts[w].Value(ref))
					exports[s.ExportIDs[w][li][k]] = v
				}
			}
		}
		want, err := nl.Evaluate(inBits)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range s.Outputs {
			var got bool
			switch {
			case src.Input >= 0:
				got = backend.DecryptOutputs(sk, []*lwe.Sample{inputs[src.Input]})[0]
			case src.Export >= 0:
				got = backend.DecryptOutputs(sk, []*lwe.Sample{exports[src.Export]})[0]
			default:
				got = src.Const == plan.ConstTrue
			}
			if got != want[i] {
				t.Fatalf("input %d output %d: sharded %v, reference %v", m, i, got, want[i])
			}
		}
	}
	boots, want := ex.Stats().Bootstraps, int64(len(ms)*p.Stats().ExecBootstraps)
	if boots == 0 || boots != want {
		t.Fatalf("executor counted %d bootstraps, want %d (%d runs)", boots, want, len(ms))
	}
}

// TestSharedShardEncrypted is the single-process proof of the worker-side
// execution path: shard levels on the slice scheduler, routed as the
// coordinator routes them, decrypt to the netlist's outputs.
func TestSharedShardEncrypted(t *testing.T) {
	runOnShared(t, nandChains(3, 5), []uint64{0, 5, 15})
}
