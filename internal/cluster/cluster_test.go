package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/shard"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/trand"
)

var (
	keyOnce sync.Once
	testSK  *boot.SecretKey
	testCK  *boot.CloudKey
)

func keys(t testing.TB) (*boot.SecretKey, *boot.CloudKey) {
	keyOnce.Do(func() {
		rng := trand.NewSeeded([]byte("cluster-test-keys"))
		sk, ck, err := boot.GenerateKeys(params.Test(), rng)
		if err != nil {
			panic(err)
		}
		testSK, testCK = sk, ck
	})
	return testSK, testCK
}

func adder4() *circuit.Netlist {
	b := circuit.NewBuilder("adder4", circuit.AllOptimizations())
	a := b.Inputs("a", 4)
	bb := b.Inputs("b", 4)
	carry := b.Const(false)
	for i := 0; i < 4; i++ {
		axb := b.Xor(a[i], bb[i])
		b.Output("s", b.Xor(axb, carry))
		carry = b.Or(b.And(a[i], bb[i]), b.And(axb, carry))
	}
	b.Output("cout", carry)
	return b.MustBuild()
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

// startCluster brings up a coordinator and n in-process workers connected
// over real TCP sockets on localhost.
func startCluster(t testing.TB, ck *boot.CloudKey, nWorkers, slots int) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nWorkers; i++ {
		go func() {
			if err := NewWorker(slots).Serve(coord.Addr()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	if err := coord.AcceptWorkers(nWorkers); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

func TestDistributedAdder(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 2, 2)
	nl := adder4()
	for _, tc := range [][2]uint64{{5, 9}, {15, 15}} {
		in := append(bitsOf(tc[0], 4), bitsOf(tc[1], 4)...)
		outs, err := coord.Run(nl, backend.EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		got := uintOf(backend.DecryptOutputs(sk, outs))
		if got != tc[0]+tc[1] {
			t.Fatalf("distributed %d+%d = %d", tc[0], tc[1], got)
		}
	}
	st := coord.LastStat
	if st.Workers != 2 || st.Slots != 4 || st.Bootstraps == 0 || st.BytesSent == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDistributedMatchesLocalBackend(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 3, 1)
	nl := adder4()
	in := append(bitsOf(7, 4), bitsOf(12, 4)...)

	local := backend.NewSingle(ck)
	wantOuts, err := local.Run(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatal(err)
	}
	gotOuts, err := coord.Run(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatal(err)
	}
	want := backend.DecryptOutputs(sk, wantOuts)
	got := backend.DecryptOutputs(sk, gotOuts)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("output %d: local %v, distributed %v", i, want[i], got[i])
		}
	}
}

func TestRunWithoutWorkersFails(t *testing.T) {
	_, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.Run(adder4(), nil); err == nil {
		t.Fatal("expected error with no workers")
	}
}

// TestNilInputRejected: input validation runs before worker dispatch, so
// the typed exec error surfaces even on a coordinator with no workers.
func TestNilInputRejected(t *testing.T) {
	sk, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	inputs := backend.EncryptInputs(sk, bitsOf(0, 8))
	inputs[3] = nil
	if _, err := coord.Run(adder4(), inputs); !errors.Is(err, exec.ErrNilInput) {
		t.Fatalf("error = %v, want exec.ErrNilInput", err)
	}
}

func TestInputCountValidation(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 1, 1)
	if _, err := coord.Run(adder4(), backend.EncryptInputs(sk, bitsOf(0, 3))); err == nil {
		t.Fatal("expected input count error")
	}
}

// TestWorkerDisconnectSurfacesError kills a worker's connection mid-session
// and checks that the coordinator reports a transport error rather than
// hanging or returning wrong results.
func TestWorkerDisconnectSurfacesError(t *testing.T) {
	_, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A fake worker that completes the handshake (Hello out, Welcome and
	// key in), then drops the link.
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		enc := gob.NewEncoder(conn)
		dec := gob.NewDecoder(conn)
		if err := enc.Encode(Message{Hello: &Hello{Slots: 1, Version: ProtoVersion}}); err != nil {
			t.Errorf("hello: %v", err)
			return
		}
		var welcome, key Message
		if err := dec.Decode(&welcome); err != nil || welcome.Welcome == nil {
			t.Errorf("welcome: %+v (%v)", welcome, err)
			return
		}
		if err := dec.Decode(&key); err != nil || key.Key == nil {
			t.Errorf("key: %v", err)
			return
		}
		// Receive the first request, then vanish.
		var req Message
		_ = dec.Decode(&req)
		conn.Close()
	}()
	if err := coord.AcceptWorkers(1); err != nil {
		t.Fatal(err)
	}

	sk := testSK
	nl := adder4()
	in := backend.EncryptInputs(sk, bitsOf(1, 8))
	_, err = coord.Run(nl, in)
	if err == nil {
		t.Fatal("coordinator should report the dropped worker")
	}
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("err = %v, want ErrWorkerLost (no surviving workers)", err)
	}
	<-done
}

// deadAfterFirstRequest joins the cluster as a well-behaved worker, then
// drops the connection the moment its first request arrives — a worker
// crashing mid-run.
func deadAfterFirstRequest(t *testing.T, addr string) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		enc := gob.NewEncoder(conn)
		dec := gob.NewDecoder(conn)
		if err := enc.Encode(Message{Hello: &Hello{Slots: 1, Version: ProtoVersion}}); err != nil {
			return
		}
		var welcome, key Message
		if err := dec.Decode(&welcome); err != nil {
			return
		}
		if err := dec.Decode(&key); err != nil {
			return
		}
		var req Message
		_ = dec.Decode(&req)
		conn.Close()
	}()
	return done
}

// TestWorkerLostMidRunRequeues kills one of two workers as its shard is
// being installed and checks that the coordinator re-hosts the dead
// worker's shard on the survivor, drops it from the roster, and still
// produces the right sum, rather than blocking forever or failing the run.
func TestWorkerLostMidRunRequeues(t *testing.T) {
	sk, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	coord.JobTimeout = 10 * time.Second

	go func() { _ = NewWorker(1).Serve(coord.Addr()) }()
	dead := deadAfterFirstRequest(t, coord.Addr())
	if err := coord.AcceptWorkers(2); err != nil {
		t.Fatal(err)
	}

	nl := adder4()
	in := append(bitsOf(9, 4), bitsOf(6, 4)...)
	outs, err := coord.Run(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatalf("run with one dead worker: %v", err)
	}
	if got := uintOf(backend.DecryptOutputs(sk, outs)); got != 15 {
		t.Fatalf("9+6 = %d after re-hosting", got)
	}
	<-dead
	if coord.WorkerCount() != 1 {
		t.Fatalf("dead worker still on the roster: %d workers", coord.WorkerCount())
	}
	if coord.LastStat.WorkersLost != 1 {
		t.Fatalf("stats.WorkersLost = %d, want 1", coord.LastStat.WorkersLost)
	}
}

// TestKeyBroadcastSize sanity-checks that the broadcast cloud key is the
// dominant setup payload (bootstrapping key in the half-complex domain).
func TestKeyBroadcastSize(t *testing.T) {
	_, ck := keys(t)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Message{Key: ck}); err != nil {
		t.Fatal(err)
	}
	// Test parameters: n=64 TGSW samples of 6 rows x 2 polys x 128 points
	// x 16 B ≈ 1.6 MB, plus the switch key. It must at least exceed the
	// raw bootstrapping-key payload.
	min := 64 * 6 * 2 * 128 * 16
	if buf.Len() < min {
		t.Fatalf("serialized cloud key is %d B, below the raw payload %d B", buf.Len(), min)
	}
	t.Logf("cloud key wire size: %.1f MB", float64(buf.Len())/1e6)
}

// TestWorkerRejectsMalformedShard: a shard arrives off a socket, so slot
// counts that cannot size its value table, refs outside it or an arity
// beyond the LUT limit must come back as an error reply (the coordinator
// turns it into an application error), not panic the worker. A shard the
// worker accepts is stepped, as the coordinator would; afterwards the same
// worker must still install a well-formed shard, refuse malformed fills
// into it, and run it.
func TestWorkerRejectsMalformedShard(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 1, 1)
	w := coord.workers[0]
	b := circuit.NewBuilder("nand", circuit.NoOptimizations())
	b.Output("o", b.Gate(logic.NAND, b.Input("x"), b.Input("y")))
	p, err := plan.Compile(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	s, err := shard.Split(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := s.Shards[0]
	in := backend.EncryptInputs(sk, []bool{true, true})
	var fills []SlotSample
	for _, f := range s.Fills[0][0] {
		fills = append(fills, SlotSample{Slot: f.Slot, Val: in[f.Input]})
	}
	install := func(sh *shard.Shard) (Message, error) {
		return roundTrip(w, Message{ShardData: sh}, 10*time.Second)
	}
	step := func(sh *shard.Shard) (Message, error) {
		return roundTrip(w, Message{Step: &ShardStep{Hash: sh.Hash, Fills: fills}}, 10*time.Second)
	}

	cases := []struct {
		name   string
		mutate func(*shard.Shard)
	}{
		{"negative slot count", func(sh *shard.Shard) { sh.Slots = -1 }},
		{"unaddressable slot count", func(sh *shard.Shard) { sh.Slots = 1 << 62 }},
		{"operand outside the table", func(sh *shard.Shard) { sh.Levels[0][0].A = 1000 }},
		{"LUT operand outside the table", func(sh *shard.Shard) { sh.Levels[0][0].Arity, sh.Levels[0][0].C = 3, -1 }},
		{"output into its operand's slot", func(sh *shard.Shard) { sh.Levels[0][0].Out = sh.Levels[0][0].A }},
		{"LUT arity 7", func(sh *shard.Shard) { sh.Levels[0][0].Arity = 7 }},
		{"export outside the table", func(sh *shard.Shard) { sh.Exports[0][0] = 1000 }},
		{"export manifest missing", func(sh *shard.Shard) { sh.Exports = nil }},
	}
	for _, tc := range cases {
		bad := *good
		bad.Hash = tc.name
		bad.Levels = make([][]plan.Instr, len(good.Levels))
		bad.Exports = make([][]int32, len(good.Exports))
		for l := range good.Levels {
			bad.Levels[l] = slices.Clone(good.Levels[l])
			bad.Exports[l] = slices.Clone(good.Exports[l])
		}
		tc.mutate(&bad)
		rep, err := install(&bad)
		if err == nil && rep.Error == "" {
			rep, err = step(&bad)
		}
		if err != nil {
			t.Fatalf("%s: worker connection failed: %v", tc.name, err)
		}
		if rep.Error == "" {
			t.Fatalf("%s: worker accepted and ran the shard", tc.name)
		}
	}

	if rep, err := install(good); err != nil || rep.ShardReady == nil || !rep.ShardReady.Cached {
		t.Fatalf("well-formed shard after the malformed ones: %+v, %v", rep, err)
	}
	// Fills arrive off the socket too: each malformed one is refused with
	// an error reply and the connection stays usable.
	fillCases := []struct {
		name string
		fill SlotSample
	}{
		{"fill slot past the table", SlotSample{Slot: int32(good.Slots), Val: in[0]}},
		{"negative fill slot", SlotSample{Slot: -1, Val: in[0]}},
		{"nil fill value", SlotSample{Slot: fills[0].Slot}},
		{"fill of the wrong LWE dimension", SlotSample{Slot: fills[0].Slot, Val: lwe.NewSample(ck.Params.LWEDimension + 1)}},
	}
	for _, tc := range fillCases {
		bad := append(slices.Clone(fills[1:]), tc.fill)
		rep, err := roundTrip(w, Message{Step: &ShardStep{Hash: good.Hash, Fills: bad}}, 10*time.Second)
		if err != nil {
			t.Fatalf("%s: worker connection failed: %v", tc.name, err)
		}
		if rep.Error == "" {
			t.Fatalf("%s: worker accepted the fill", tc.name)
		}
	}
	rep, err := step(good)
	if err != nil || rep.StepResult == nil || len(rep.StepResult.Exports) != 1 {
		t.Fatalf("stepping the well-formed shard: %+v, %v", rep, err)
	}
	if backend.DecryptOutputs(sk, rep.StepResult.Exports)[0] {
		t.Fatal("NAND(1, 1) decrypted to 1")
	}
}
