package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/core"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// Two tenant key pairs, generated once (test parameters, seeded).
var (
	keyOnce sync.Once
	tenants [2]*core.KeyPair
)

func tenantKeys(t testing.TB) [2]*core.KeyPair {
	t.Helper()
	keyOnce.Do(func() {
		for i, seed := range []string{"serve-tenant-0", "serve-tenant-1"} {
			rng := trand.NewSeeded([]byte(seed))
			sk, ck, err := boot.GenerateKeys(params.Test(), rng)
			if err != nil {
				panic(err)
			}
			tenants[i] = &core.KeyPair{Secret: sk, Cloud: ck}
		}
	})
	return tenants
}

// adderProg and xor4Prog are the distinct serving workloads.
func adderProg(t testing.TB, width int) *core.Program {
	t.Helper()
	b := circuit.NewBuilder(fmt.Sprintf("adder%d", width), circuit.AllOptimizations())
	a := b.Inputs("a", width)
	bb := b.Inputs("b", width)
	carry := b.Const(false)
	for i := 0; i < width; i++ {
		axb := b.Xor(a[i], bb[i])
		b.Output("s", b.Xor(axb, carry))
		carry = b.Or(b.And(a[i], bb[i]), b.And(axb, carry))
	}
	b.Output("cout", carry)
	return compile(t, b)
}

func adder4Prog(t testing.TB) *core.Program { return adderProg(t, 4) }

func xor4Prog(t testing.TB) *core.Program {
	t.Helper()
	b := circuit.NewBuilder("xor4", circuit.AllOptimizations())
	a := b.Inputs("a", 4)
	bb := b.Inputs("b", 4)
	for i := 0; i < 4; i++ {
		b.Output("x", b.Xor(b.Nand(a[i], a[i]), bb[i]))
	}
	return compile(t, b)
}

// wideXorProg is one wavefront of width independent XORs: every gate is
// ready at once, the shape that floods a scheduler.
func wideXorProg(t testing.TB, width int) *core.Program {
	t.Helper()
	b := circuit.NewBuilder("xorwide", circuit.AllOptimizations())
	a := b.Inputs("a", width)
	bb := b.Inputs("b", width)
	for i := 0; i < width; i++ {
		b.Output("x", b.Xor(a[i], bb[i]))
	}
	return compile(t, b)
}

func compile(t testing.TB, b *circuit.Builder) *core.Program {
	t.Helper()
	prog, err := core.Compile(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func bitsOf(v uint64, n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = v>>uint(i)&1 == 1
	}
	return bits
}

func uintOf(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		verifyPlans(t, srv)
		srv.Close()
	})
	return srv
}

// verifyPlans runs the plan-soundness verifier over the plan of every
// registered program — so each serve
// test also checks that what it was served from is sound.
func verifyPlans(t *testing.T, srv *Server) {
	t.Helper()
	srv.mu.Lock()
	entries := make([]*programEntry, 0, len(srv.programs))
	for _, e := range srv.programs {
		entries = append(entries, e)
	}
	srv.mu.Unlock()
	for _, e := range entries {
		if _, err := plan.Verify(e.prog.Netlist, e.plan); err != nil {
			t.Errorf("plan the daemon compiled for %s does not verify: %v", e.prog.Name, err)
		}
	}
}

// TestServeConcurrentSessions is the acceptance scenario: four concurrent
// client sessions across two tenants and two distinct programs, every
// decrypted result checked against a direct core.Run of the same program
// on a local single-core backend.
func TestServeConcurrentSessions(t *testing.T) {
	kps := tenantKeys(t)
	progs := []*core.Program{adder4Prog(t), xor4Prog(t)}
	srv := startServer(t, Config{Workers: 3})

	type sessionCase struct {
		kp   *core.KeyPair
		prog *core.Program
		vals [2]uint64
	}
	sessions := []sessionCase{
		{kps[0], progs[0], [2]uint64{5, 9}},
		{kps[1], progs[0], [2]uint64{15, 15}},
		{kps[0], progs[1], [2]uint64{0xA, 0x3}},
		{kps[1], progs[1], [2]uint64{0x5, 0xF}},
	}

	var wg sync.WaitGroup
	for i, sc := range sessions {
		wg.Add(1)
		go func(i int, sc sessionCase) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			defer cl.Close()
			info, err := cl.RegisterProgram(sc.prog.Binary)
			if err != nil {
				t.Errorf("session %d register: %v", i, err)
				return
			}
			if _, err := cl.OpenSession(sc.kp.Cloud); err != nil {
				t.Errorf("session %d open: %v", i, err)
				return
			}
			in := append(bitsOf(sc.vals[0], 4), bitsOf(sc.vals[1], 4)...)
			outs, err := cl.Evaluate(info.Hash, sc.kp.EncryptBits(in))
			if err != nil {
				t.Errorf("session %d evaluate: %v", i, err)
				return
			}
			got := sc.kp.DecryptBits(outs)

			// Reference: a direct core.Run of the same program, same key.
			refOuts, err := core.Run(sc.prog, backend.NewSingle(sc.kp.Cloud), sc.kp.EncryptBits(in))
			if err != nil {
				t.Errorf("session %d reference run: %v", i, err)
				return
			}
			want := sc.kp.DecryptBits(refOuts)
			if uintOf(got) != uintOf(want) {
				t.Errorf("session %d (%s): served %#x, direct core.Run %#x",
					i, sc.prog.Name, uintOf(got), uintOf(want))
			}
		}(i, sc)
	}
	wg.Wait()

	// The registry deduplicated: 4 sessions, 2 programs, every eval counted.
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Programs != 2 || st.Sessions != 4 || st.Evaluations != 4 {
		t.Fatalf("stats = %+v, want 2 programs, 4 sessions, 4 evaluations", st)
	}
	var hits int64
	for _, h := range st.PerProgram {
		hits += h
	}
	if hits != 4 {
		t.Fatalf("per-program hits sum to %d, want 4", hits)
	}
}

// TestServeRegistryAdmission checks malformed binaries are rejected at
// registration and re-registering is a cache hit.
func TestServeRegistryAdmission(t *testing.T) {
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 1})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.RegisterProgram([]byte("not a pytfhe binary")); !errors.Is(err, ErrRejected) {
		t.Fatalf("garbage register: err = %v, want ErrRejected", err)
	}
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("first registration reported as cached")
	}
	again, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Hash != info.Hash {
		t.Fatalf("re-registration: cached=%v hash match=%v", again.Cached, again.Hash == info.Hash)
	}

	// Evaluating an unregistered hash is a typed failure.
	if _, err := cl.OpenSession(tenantKeys(t)[0].Cloud); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Evaluate("deadbeef", nil); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("unknown hash: err = %v, want ErrUnknownProgram", err)
	}
	// Evaluating before OpenSession is too.
	cl2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Evaluate(info.Hash, nil); !errors.Is(err, ErrNoSession) {
		t.Fatalf("no session: err = %v, want ErrNoSession", err)
	}
}

// TestServeNoiseAdmission drives the registration-time static noise
// analysis: under a degraded parameter set any bootstrapped netlist is
// rejected (the bootstrap output noise alone eats the output decode
// margin), a free-gate program still registers (NOT only shifts the
// fresh input noise, which keeps 32 sigmas even degraded) and its noise
// summary rides ProgramInfo and the Stats RPC, and the default
// production set admits the deep program with positive headroom.
func TestServeNoiseAdmission(t *testing.T) {
	deep := func() *core.Program {
		b := circuit.NewBuilder("nandchain3", circuit.NoOptimizations())
		ins := b.Inputs("x", 2)
		cur := ins[0]
		for i := 0; i < 3; i++ {
			cur = b.Nand(cur, ins[1])
		}
		b.Output("o", cur)
		return compile(t, b)
	}()
	free := func() *core.Program {
		b := circuit.NewBuilder("not1", circuit.NoOptimizations())
		ins := b.Inputs("x", 1)
		b.Output("o", b.Not(ins[0]))
		return compile(t, b)
	}()

	// Degraded set: test parameters with the fresh LWE noise cranked from
	// 2^-20 to 2^-8, so a bootstrap output's noise stdev (~0.18) swamps
	// the 1/8 output decode margin and any bootstrapped program is over
	// budget, while the free NOT keeps its fresh 2^-8 stdev (32 sigmas).
	degraded := *params.Test()
	degraded.Name = "degraded"
	degraded.LWEStdev = math.Exp2(-8)
	srv := startServer(t, Config{Workers: 1, NoiseParams: &degraded})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.RegisterProgram(deep.Binary); !errors.Is(err, ErrRejected) {
		t.Fatalf("deep netlist under degraded params: err = %v, want ErrRejected", err)
	} else if !strings.Contains(err.Error(), "over budget") {
		t.Fatalf("rejection does not name the noise budget: %v", err)
	}
	info, err := cl.RegisterProgram(free.Binary)
	if err != nil {
		t.Fatalf("free-gate netlist under degraded params: %v", err)
	}
	if !info.Noise.Checked || info.Noise.Params != "degraded" {
		t.Fatalf("noise summary = %+v, want checked under degraded", info.Noise)
	}
	if info.Noise.HeadroomBits <= 0 || info.Noise.WorstSigmas < 4 {
		t.Fatalf("admitted program reports no margin: %+v", info.Noise)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if pn, ok := st.ProgramNoise[info.Hash]; !ok || pn != info.Noise {
		t.Fatalf("stats noise = %+v (ok=%v), want %+v", pn, ok, info.Noise)
	}

	// The production default128 set admits the deep chain with headroom.
	srv2 := startServer(t, Config{Workers: 1})
	cl2, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	info2, err := cl2.RegisterProgram(deep.Binary)
	if err != nil {
		t.Fatalf("deep netlist under default128: %v", err)
	}
	if !info2.Noise.Checked || info2.Noise.HeadroomBits <= 0 {
		t.Fatalf("default128 noise summary = %+v, want checked with positive headroom", info2.Noise)
	}

	// A server with the check disabled admits anything and says so.
	srv3 := startServer(t, Config{Workers: 1, NoiseParams: &degraded, DisableNoiseCheck: true})
	cl3, err := Dial(srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	info3, err := cl3.RegisterProgram(deep.Binary)
	if err != nil {
		t.Fatalf("noise check disabled: %v", err)
	}
	if info3.Noise.Checked {
		t.Fatalf("disabled check still reported a summary: %+v", info3.Noise)
	}
}

// TestServeBackpressure saturates a deliberately tiny admission queue and
// checks the server sheds load with ErrOverloaded instead of queueing
// without bound, then keeps serving afterwards.
func TestServeBackpressure(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 1, MaxConcurrent: 1, QueueCap: 1})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}

	const burst = 8
	var overloaded, succeeded atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer c.Close()
			if _, err := c.OpenSession(kp.Cloud); err != nil {
				t.Errorf("open %d: %v", i, err)
				return
			}
			in := append(bitsOf(uint64(i), 4), bitsOf(3, 4)...)
			outs, err := c.Evaluate(info.Hash, kp.EncryptBits(in))
			switch {
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			case err != nil:
				t.Errorf("eval %d: %v", i, err)
			default:
				succeeded.Add(1)
				if got := uintOf(kp.DecryptBits(outs)); got != uint64(i)+3 {
					t.Errorf("eval %d: %d+3 = %d under load", i, i, got)
				}
			}
		}(i)
	}
	wg.Wait()
	if overloaded.Load() == 0 {
		t.Fatalf("no ErrOverloaded out of %d concurrent requests on a 1+1 queue", burst)
	}
	if succeeded.Load() == 0 {
		t.Fatal("every request shed: admission control is rejecting admitted work")
	}
	t.Logf("burst %d: %d served, %d shed", burst, succeeded.Load(), overloaded.Load())

	// The shed requests left no residue: the server still serves.
	if _, err := cl.OpenSession(kp.Cloud); err != nil {
		t.Fatal(err)
	}
	outs, err := cl.Evaluate(info.Hash, kp.EncryptBits(bitsOf(0x21, 8)))
	if err != nil {
		t.Fatalf("server wedged after overload burst: %v", err)
	}
	if got := uintOf(kp.DecryptBits(outs)); got != 3 {
		t.Fatalf("1+2 = %d after overload burst", got)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != overloaded.Load() {
		t.Fatalf("stats.Rejected = %d, clients saw %d", st.Rejected, overloaded.Load())
	}
}

// TestServePlanCacheAndLatency drives the same program through repeated
// evaluations and checks the capture/replay serving path: registration
// paid the one plan compile (a miss), every request is a hit replaying
// the registered plan, and the Stats RPC reports the counters, the arena
// high-water mark, and per-program latency quantiles.
func TestServePlanCacheAndLatency(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 2})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenSession(kp.Cloud); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		in := append(bitsOf(uint64(i), 4), bitsOf(7, 4)...)
		outs, err := cl.Evaluate(info.Hash, kp.EncryptBits(in))
		if err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
		if got := uintOf(kp.DecryptBits(outs)); got != uint64(i)+7 {
			t.Fatalf("eval %d: %d+7 = %d on the replay path", i, i, got)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanMisses != 1 || st.PlanHits != runs {
		t.Fatalf("plans: %d misses, %d hits; want 1 and %d", st.PlanMisses, st.PlanHits, runs)
	}
	if st.PlanReplays != runs || st.PlanFallbacks != 0 {
		t.Fatalf("plan execution: %d replays, %d fallbacks; want %d and 0",
			st.PlanReplays, st.PlanFallbacks, runs)
	}
	if st.ArenaHighWater <= 0 {
		t.Fatalf("arena high water = %d, want > 0", st.ArenaHighWater)
	}
	lat, ok := st.PerProgramLatency[info.Hash]
	if !ok || lat.Samples != runs {
		t.Fatalf("latency window = %+v (ok=%v), want %d samples", lat, ok, runs)
	}
	if lat.P50Ms <= 0 || lat.P95Ms < lat.P50Ms {
		t.Fatalf("latency quantiles implausible: %+v", lat)
	}
}

// TestServeRegistrationCompilesPlan pins where the compile happens:
// registration compiles the plan (a miss before any evaluation), an
// evaluation replays it (a hit, no compile), re-registering the same
// binary compiles nothing, and under -lut the registered plan is the
// clustered form.
func TestServeRegistrationCompilesPlan(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 1})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	plans := func(wantMisses, wantHits int64) {
		t.Helper()
		if st := srv.statsSnapshot(); st.PlanMisses != wantMisses || st.PlanHits != wantHits {
			t.Fatalf("plans: %d misses, %d hits; want %d and %d", st.PlanMisses, st.PlanHits, wantMisses, wantHits)
		}
	}

	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	plans(1, 0)
	if _, err := cl.OpenSession(kp.Cloud); err != nil {
		t.Fatal(err)
	}
	outs, err := cl.Evaluate(info.Hash, kp.EncryptBits(append(bitsOf(6, 4), bitsOf(7, 4)...)))
	if err != nil {
		t.Fatal(err)
	}
	if got := uintOf(kp.DecryptBits(outs)); got != 13 {
		t.Fatalf("6+7 = %d from the registered plan", got)
	}
	plans(1, 1)
	if again, err := cl.RegisterProgram(prog.Binary); err != nil || !again.Cached {
		t.Fatalf("re-register: %+v, %v", again, err)
	}
	plans(1, 1)

	lsrv := startServer(t, Config{Workers: 1, LUT: true})
	lcl, err := Dial(lsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer lcl.Close()
	linfo, err := lcl.RegisterProgram(naeProg(t).Binary)
	if err != nil {
		t.Fatal(err)
	}
	lsrv.mu.Lock()
	entry := lsrv.programs[linfo.Hash]
	lsrv.mu.Unlock()
	if n := entry.plan.Stats().ExecLUTs; n == 0 || lsrv.statsSnapshot().PlanMisses != 1 {
		t.Fatalf("-lut registration compiled a plan with %d LUT instructions", n)
	}
}

// TestServeCrossRequestBatching is the multi-tenant batching acceptance
// scenario: several concurrent sessions of one tenant evaluate a wide
// single-wavefront program on a one-worker server, so the shared
// executor's queue holds level slices of multiple requests at once and
// the worker's batch top-up fuses them into shared kernel dispatches. The Stats RPC must report the occupancy, including batches
// that spanned ≥2 requests.
func TestServeCrossRequestBatching(t *testing.T) {
	kp := tenantKeys(t)[0]
	// 13 independent XORs: one level-0 wavefront, and 13 is not a multiple
	// of the batch size, so request boundaries land mid-batch.
	const width = 13
	prog := wideXorProg(t, width)

	// One worker so every request funnels into one drain loop; MaxConcurrent
	// must admit the whole burst or the admission slots (default 2×workers)
	// serialize the very concurrency the test needs.
	srv := startServer(t, Config{Workers: 1, Batch: 8, MaxConcurrent: 8})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}

	// Cumulative stats: repeat the burst until a cross-request batch shows
	// up (one burst nearly always suffices; the retry absorbs scheduler
	// noise on loaded machines).
	const clientsN = 6
	for attempt := 0; attempt < 5; attempt++ {
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < clientsN; i++ {
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.OpenSession(kp.Cloud); err != nil {
				t.Fatal(err)
			}
			done.Add(1)
			go func(i int, c *Client) {
				defer done.Done()
				defer c.Close()
				av, bv := uint64(i*37+5)&(1<<width-1), uint64(i*101+9)&(1<<width-1)
				in := append(bitsOf(av, width), bitsOf(bv, width)...)
				start.Wait()
				outs, err := c.Evaluate(info.Hash, kp.EncryptBits(in))
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				if got := uintOf(kp.DecryptBits(outs)); got != av^bv {
					t.Errorf("client %d: %#x^%#x = %#x under batching", i, av, bv, got)
				}
			}(i, c)
		}
		start.Done()
		done.Wait()

		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.BatchSize != 8 {
			t.Fatalf("stats.BatchSize = %d, want 8", st.BatchSize)
		}
		// Same-key concurrency is no reason to leave the replay path: every
		// one of these contended requests is a plan replay.
		if st.PlanReplays != st.Evaluations || st.PlanFallbacks != 0 {
			t.Fatalf("%d evaluations: %d replays, %d fallbacks; want every one replayed",
				st.Evaluations, st.PlanReplays, st.PlanFallbacks)
		}
		if st.CrossRunBatches > 0 {
			if st.Batches <= 0 || st.BatchedBootstraps < st.Batches {
				t.Fatalf("implausible occupancy: %d batches covering %d bootstraps",
					st.Batches, st.BatchedBootstraps)
			}
			if st.AvgBatchFill < 1 {
				t.Fatalf("AvgBatchFill = %.2f with %d batches", st.AvgBatchFill, st.Batches)
			}
			t.Logf("attempt %d: %d batches (%d cross-request), %d batched bootstraps, avg fill %.2f",
				attempt, st.Batches, st.CrossRunBatches, st.BatchedBootstraps, st.AvgBatchFill)
			return
		}
		t.Logf("attempt %d: no cross-request batch yet (%d batches, %d fallbacks)",
			attempt, st.Batches, st.PlanFallbacks)
	}
	t.Fatal("no cross-request batch formed in 5 bursts of 6 concurrent sessions")
}

// TestServeTimeout checks the per-request deadline fires (queue wait
// included) as ErrTimeout.
func TestServeTimeout(t *testing.T) {
	kp := tenantKeys(t)[0]
	prog := adder4Prog(t)
	srv := startServer(t, Config{Workers: 1})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenSession(kp.Cloud); err != nil {
		t.Fatal(err)
	}
	in := kp.EncryptBits(bitsOf(0x42, 8))
	if _, err := cl.EvaluateTimeout(info.Hash, in, time.Nanosecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("1ns evaluation: err = %v, want ErrTimeout", err)
	}
}

// TestServeGracefulDrain starts evaluations, drains the server mid-flight,
// and checks every in-flight request completes with a correct result while
// new work is refused.
func TestServeGracefulDrain(t *testing.T) {
	kp := tenantKeys(t)[0]
	// A 16-bit adder is long enough (≈80 bootstraps) that the drain
	// reliably lands while evaluations are in flight.
	prog := adderProg(t, 16)
	srv := startServer(t, Config{Workers: 2})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}

	const inflight = 3
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.OpenSession(kp.Cloud); err != nil {
			t.Fatal(err)
		}
		go func(i int, c *Client) {
			defer c.Close()
			in := append(bitsOf(uint64(i), 16), bitsOf(5, 16)...)
			outs, err := c.Evaluate(info.Hash, kp.EncryptBits(in))
			if err != nil {
				results <- err
				return
			}
			if got := uintOf(kp.DecryptBits(outs)); got != uint64(i)+5 {
				results <- errors.New("wrong sum under drain")
				return
			}
			results <- nil
		}(i, c)
	}

	// Wait until every evaluation has been admitted (or already served):
	// evals is bumped before the queued decrement, so the sum counts
	// admissions monotonically. Draining any earlier could bounce a
	// late-arriving request with ErrDraining.
	admitted := func() int64 {
		return atomic.LoadInt64(&srv.evals) + int64(atomic.LoadInt32(&srv.queued))
	}
	for deadline := time.Now().Add(60 * time.Second); admitted() < inflight; {
		if time.Now().After(deadline) {
			t.Fatal("evaluations never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight request during drain: %v", err)
		}
	}
	// The drained server accepts nothing new.
	if _, err := Dial(srv.Addr()); err == nil {
		t.Fatal("drained server accepted a new connection")
	}
}

// TestServeHostileKeyUpload: a malformed cloud key is refused at OpenSession
// with an error reply on a live connection. Before the shape check, each of
// these either dereferenced nil Params in the handler or indexed out of range
// in a worker goroutine, taking the daemon down. The server must still serve
// a well-formed tenant afterwards.
func TestServeHostileKeyUpload(t *testing.T) {
	good := tenantKeys(t)[0].Cloud
	// mangled returns a copy of the good key whose entry 0 went through edit;
	// the shared tenant key itself stays intact.
	mangled := func(edit func(g *tgsw.HalfSample)) *boot.CloudKey {
		ck := *good
		ck.BK = append([]*tgsw.HalfSample(nil), good.BK...)
		g := *good.BK[0]
		g.Rows = append([][]*torus.HalfPoly(nil), g.Rows...)
		edit(&g)
		ck.BK[0] = &g
		return &ck
	}
	n := good.Params.PolyDegree
	cases := []struct {
		name string
		key  *boot.CloudKey
		want string
	}{
		{"nil params", &boot.CloudKey{BK: good.BK, KS: good.KS}, "without parameters"},
		{"short BK", &boot.CloudKey{Params: good.Params, BK: good.BK[:5], KS: good.KS}, "entries"},
		{"wrong row count", mangled(func(g *tgsw.HalfSample) { g.Rows = g.Rows[1:] }), "rows"},
		{"wrong poly count", mangled(func(g *tgsw.HalfSample) { g.Rows[0] = g.Rows[0][:1] }), "polynomials"},
		{"wrong poly length", mangled(func(g *tgsw.HalfSample) {
			g.Rows[0] = []*torus.HalfPoly{torus.NewHalfPoly(3), g.Rows[0][1]}
		}), "points"},
		{"old full-complex format", mangled(func(g *tgsw.HalfSample) {
			g.Rows[0] = []*torus.HalfPoly{torus.NewHalfPoly(n), g.Rows[0][1]}
		}), "regenerate keys"},
		{"no key-switching key", &boot.CloudKey{Params: good.Params, BK: good.BK}, "key-switching"},
	}
	srv := startServer(t, Config{Workers: 1})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			_, err = cl.OpenSession(tc.key)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenSession = %v, want an error mentioning %q", err, tc.want)
			}
			// The connection survived the refusal and takes the real key.
			if _, err := cl.OpenSession(good); err != nil {
				t.Fatalf("well-formed key refused after a malformed one: %v", err)
			}
		})
	}
}

// TestServeCollectsAfterKeyUpload pins the daemon's one memory policy: the
// request after an accepted key upload runs a forced collection, once the
// upload's gob frame is garbage, so later heap goals are set by the keys
// kept. A refused upload forces none, so a client cannot make the daemon
// collect on every request with cheap invalid opens.
func TestServeCollectsAfterKeyUpload(t *testing.T) {
	forced := func() uint64 {
		s := []rtmetrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
		rtmetrics.Read(s)
		return s[0].Value.Uint64()
	}
	good := tenantKeys(t)[0].Cloud
	srv := startServer(t, Config{Workers: 1})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// statsForces reports how many collections the next request forced.
	statsForces := func() uint64 {
		t.Helper()
		before := forced()
		if _, err := cl.Stats(); err != nil {
			t.Fatal(err)
		}
		return forced() - before
	}

	if _, err := cl.OpenSession(&boot.CloudKey{Params: good.Params, BK: good.BK[:5], KS: good.KS}); err == nil {
		t.Fatal("a key with a short BK was accepted")
	}
	if n := statsForces(); n != 0 {
		t.Fatalf("a request after a refused upload forced %d collections", n)
	}
	if _, err := cl.OpenSession(good); err != nil {
		t.Fatal(err)
	}
	if n := statsForces(); n == 0 {
		t.Fatal("no forced collection on the request after a key upload")
	}
	if n := statsForces(); n != 0 {
		t.Fatalf("a request after a non-upload forced %d collections", n)
	}
}
