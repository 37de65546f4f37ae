package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/plan"
	"pytfhe/internal/qos"
	"pytfhe/internal/shard"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/torus"
	"pytfhe/internal/vipbench"
)

func TestShardedAdderAndCacheHit(t *testing.T) {
	sk, ck := keys(t)
	coord := startCluster(t, ck, 2, 2)
	nl := adder4()
	for run, tc := range [][2]uint64{{5, 9}, {15, 15}} {
		in := append(bitsOf(tc[0], 4), bitsOf(tc[1], 4)...)
		outs, err := coord.Run(nl, backend.EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		got := uintOf(backend.DecryptOutputs(sk, outs))
		if got != tc[0]+tc[1] {
			t.Fatalf("sharded %d+%d = %d", tc[0], tc[1], got)
		}
		st := coord.LastStat
		if run == 0 {
			// First run ships every shard: all misses.
			if st.ShardMisses == 0 || st.ShardHits != 0 {
				t.Fatalf("first run: hits=%d misses=%d, want 0/>0", st.ShardHits, st.ShardMisses)
			}
			if st.ShardBytesShipped == 0 {
				t.Fatalf("first run shipped no shard bytes: %+v", st)
			}
		} else {
			// Second run must find every shard resident.
			if st.ShardMisses != 0 || st.ShardHits == 0 {
				t.Fatalf("second run: hits=%d misses=%d, want >0/0", st.ShardHits, st.ShardMisses)
			}
			if st.ShardBytesShipped != 0 {
				t.Fatalf("second run reshipped %d bytes", st.ShardBytesShipped)
			}
		}
		if st.SamplesSent == 0 || st.SamplesReceived == 0 || st.BoundaryBytes == 0 {
			t.Fatalf("boundary traffic not accounted: %+v", st)
		}
		if st.WireBytesSent == 0 || st.WireBytesRecv == 0 {
			t.Fatalf("measured wire counters empty: %+v", st)
		}
	}
	tot := coord.Totals()
	if tot.ShardRuns != 2 || tot.ShardMisses == 0 || tot.ShardHits == 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

// andOf is the AND of k inputs: netlists of different k shard to different
// content hashes.
func andOf(k int) *circuit.Netlist {
	b := circuit.NewBuilder("and", circuit.AllOptimizations())
	in := b.Inputs("x", k)
	acc := in[0]
	for _, x := range in[1:] {
		acc = b.And(acc, x)
	}
	b.Output("o", acc)
	return b.MustBuild()
}

// TestShardCachesStayBounded runs more distinct netlists than either cache
// holds. The coordinator never keeps more than shardingCacheEntries
// decompositions, and a worker with ShardCache 2 keeps only the two most
// recently used shards: the last netlist hits, the first is reshipped.
func TestShardCachesStayBounded(t *testing.T) {
	sk, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	w := NewWorker(1)
	w.ShardCache = 2
	go func() { _ = w.Serve(coord.Addr()) }()
	if err := coord.AcceptWorkers(1); err != nil {
		t.Fatal(err)
	}
	run := func(nl *circuit.Netlist) Stats {
		t.Helper()
		in := make([]bool, nl.NumInputs)
		for i := range in {
			in[i] = true
		}
		outs, err := coord.Run(nl, backend.EncryptInputs(sk, in))
		if err != nil {
			t.Fatal(err)
		}
		if !backend.DecryptOutputs(sk, outs)[0] {
			t.Fatalf("AND of %d true inputs decrypts false", nl.NumInputs)
		}
		return coord.LastStat
	}
	nls := make([]*circuit.Netlist, shardingCacheEntries+4)
	for i := range nls {
		nls[i] = andOf(i + 2)
		run(nls[i])
		if n := coord.plans.Len(); n > shardingCacheEntries {
			t.Fatalf("coordinator caches %d decompositions after %d netlists, want at most %d", n, i+1, shardingCacheEntries)
		}
	}
	if st := run(nls[len(nls)-1]); st.ShardMisses != 0 {
		t.Fatalf("most recent shard not resident: %+v", st)
	}
	if st := run(nls[0]); st.ShardMisses == 0 {
		t.Fatalf("first shard still resident on a worker caching 2: %+v", st)
	}
}

// TestShardLevelsSpreadOverSlots: a worker with several slots cuts each
// shard level into one part per slot, as a compiled plan has one partition
// per worker, so
// a level shorter than a kernel batch is still served as several slices
// instead of one slice on one scheduler worker. The parts keep the level's
// instructions in order.
func TestShardLevelsSpreadOverSlots(t *testing.T) {
	sk, ck := keys(t)
	nl := adder4()
	p, err := plan.Compile(nl, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := shard.Split(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Shards[0]
	const slots = 3
	ex := backend.NewShared(slots, shard.WorkerBatch)
	defer ex.Close()
	key, err := ex.RegisterKey(ck)
	if err != nil {
		t.Fatal(err)
	}
	h := &shardHost{shards: qos.NewLRU(1), ex: ex, key: key, dim: ck.Params.LWEDimension}
	if rep := h.install(sh); rep.Error != "" {
		t.Fatal(rep.Error)
	}
	ent := h.cached(sh.Hash)
	inputs := backend.EncryptInputs(sk, make([]bool, nl.NumInputs))
	var slices, spread int64
	for l, instrs := range sh.Levels {
		parts := ent.levels[l].Batches
		if len(parts) != min(len(instrs), slots) {
			t.Fatalf("level %d: %d instructions in %d parts, want %d", l, len(instrs), len(parts), min(len(instrs), slots))
		}
		var joined []plan.Instr
		for _, part := range parts {
			joined = append(joined, part...)
			slices += int64((len(part) + shard.WorkerBatch - 1) / shard.WorkerBatch)
		}
		if len(instrs) > 0 && !reflect.DeepEqual(joined, instrs) {
			t.Fatalf("level %d: parts do not concatenate to the level", l)
		}
		if len(instrs) > 1 {
			spread++
		}
		var fills []SlotSample
		for _, f := range s.Fills[0][l] {
			fills = append(fills, SlotSample{Slot: f.Slot, Val: inputs[f.Input]})
		}
		if _, err := h.apply(ent, &ShardStep{Hash: sh.Hash, Level: l, Fills: fills}); err != nil {
			t.Fatal(err)
		}
	}
	if spread == 0 {
		t.Fatal("no shard level has two instructions; the test checks nothing")
	}
	if got := ex.Stats().TenantPicks[key.ID()]; got != slices {
		t.Fatalf("executor served %d slices, want %d", got, slices)
	}
}

// BenchmarkWorkerRoundTrip times one coordinator↔worker exchange over
// loopback TCP: a ShardInit for a resident shard, the smallest request a
// run sends. A sharded run pays at least one such latency per plan level
// on its critical path.
func BenchmarkWorkerRoundTrip(b *testing.B) {
	sk, ck := keys(b)
	coord := startCluster(b, ck, 1, 1)
	nl := adder4()
	// One run ships the shard; every ShardInit below finds it resident.
	if _, err := coord.Run(nl, backend.EncryptInputs(sk, make([]bool, nl.NumInputs))); err != nil {
		b.Fatal(err)
	}
	s, err := coord.sharding(nl, 1)
	if err != nil {
		b.Fatal(err)
	}
	sh, w := s.Shards[0], coord.workers[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := roundTrip(w, Message{ShardInit: &ShardInit{PlanHash: sh.PlanHash, Hash: sh.Hash}}, 10*time.Second)
		if err != nil || rep.ShardReady == nil || !rep.ShardReady.Cached {
			b.Fatalf("round trip %d: %+v, %v", i, rep, err)
		}
	}
}

// BenchmarkWorkerSlots times a sharded hamming-distance run on one worker
// at 1 and 2 slots. Most of its shard levels are shorter than two kernel
// batches, so the 2-slot run is faster only if a level's instructions reach
// both scheduler workers.
func BenchmarkWorkerSlots(b *testing.B) {
	sk, ck := keys(b)
	nl, err := vipbench.HammingDistance().Build()
	if err != nil {
		b.Fatal(err)
	}
	in := backend.EncryptInputs(sk, make([]bool, nl.NumInputs))
	for _, slots := range []int{1, 2} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			coord := startCluster(b, ck, 1, slots)
			if _, err := coord.Run(nl, in); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Run(nl, in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(coord.LastStat.Gates)*float64(b.N)/b.Elapsed().Seconds(), "gates/s")
		})
	}
}

// shardWorkerDiesOnFirstStep joins as a protocol-correct worker, accepts
// its shard, then drops the connection the moment real work arrives.
func shardWorkerDiesOnFirstStep(t *testing.T, addr string) <-chan struct{} {
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
		for {
			var msg Message
			if err := dec.Decode(&msg); err != nil {
				return
			}
			switch {
			case msg.ShardInit != nil:
				if err := enc.Encode(Message{ShardReady: &ShardReady{Hash: msg.ShardInit.Hash, Cached: false}}); err != nil {
					return
				}
			case msg.ShardData != nil:
				if err := enc.Encode(Message{ShardReady: &ShardReady{Hash: msg.ShardData.Hash, Cached: true}}); err != nil {
					return
				}
			case msg.Step != nil:
				conn.Close()
				return
			case msg.Bye:
				return
			}
		}
	}()
	return done
}

// TestShardedWorkerLostRecovers kills one of two workers at its first step
// and checks the survivor absorbs the lost shard (reship + replay) and the
// run still produces the right sum.
func TestShardedWorkerLostRecovers(t *testing.T) {
	sk, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	coord.JobTimeout = 10 * time.Second

	go func() { _ = NewWorker(1).Serve(coord.Addr()) }()
	dead := shardWorkerDiesOnFirstStep(t, coord.Addr())
	if err := coord.AcceptWorkers(2); err != nil {
		t.Fatal(err)
	}

	nl := adder4()
	in := append(bitsOf(9, 4), bitsOf(6, 4)...)
	outs, err := coord.Run(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatalf("sharded run with one dying worker: %v", err)
	}
	if got := uintOf(backend.DecryptOutputs(sk, outs)); got != 15 {
		t.Fatalf("9+6 = %d after shard recovery", got)
	}
	<-dead
	st := coord.LastStat
	if st.WorkersLost != 1 {
		t.Fatalf("stats.WorkersLost = %d, want 1", st.WorkersLost)
	}
	if coord.Totals().ShardReships == 0 && st.ShardMisses < 3 {
		// The orphaned shard must have been re-installed on the survivor:
		// either as a tracked reship (post-level-0 loss) or as an extra miss.
		t.Fatalf("no reship recorded: %+v", st)
	}
}

// TestPendingCoordinatorBindsLate exercises the daemon flow: workers join
// a keyless coordinator, park, and complete their handshake when the key
// arrives with the first session.
func TestPendingCoordinatorBindsLate(t *testing.T) {
	sk, ck := keys(t)
	coord, err := NewPendingCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	go coord.ServeJoins()
	for i := 0; i < 2; i++ {
		go func() { _ = NewWorker(1).Serve(coord.Addr()) }()
	}
	// Give the workers a moment to park before the key binds, so the
	// drain path (not just the live-join path) is exercised.
	time.Sleep(100 * time.Millisecond)
	if coord.WorkerCount() != 0 {
		t.Fatalf("%d workers admitted before SetKey", coord.WorkerCount())
	}
	if err := coord.SetKey(ck); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	nl := adder4()
	in := append(bitsOf(3, 4), bitsOf(4, 4)...)
	outs, err := coord.Run(nl, backend.EncryptInputs(sk, in))
	if err != nil {
		t.Fatal(err)
	}
	if got := uintOf(backend.DecryptOutputs(sk, outs)); got != 7 {
		t.Fatalf("3+4 = %d via late-bound coordinator", got)
	}
	// Rebinding the same key is a no-op; a different key is refused.
	if err := coord.SetKey(ck); err != nil {
		t.Fatalf("same-key rebind: %v", err)
	}
}

func TestVersionMismatchRejectedByCoordinator(t *testing.T) {
	_, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	go func() {
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		enc := gob.NewEncoder(conn)
		if err := enc.Encode(Message{Hello: &Hello{Slots: 1, Version: 1}}); err != nil {
			return
		}
		var rej Message
		_ = gob.NewDecoder(conn).Decode(&rej)
	}()
	if err := coord.AcceptWorkers(1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
}

// requirePeerClosed fails unless the coordinator has closed the far end of
// conn: a read must see EOF, not its own deadline.
func requirePeerClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent peer not closed by the coordinator: read returned %v", err)
	}
}

// TestSilentPeerCannotStallJoins: a peer that connects and never sends its
// Hello is cut off after JobTimeout. AcceptWorkers fails with ErrHandshake
// instead of hanging, and under ServeJoins a real worker joins while the
// silent connection is closed rather than pinning a goroutine forever.
func TestSilentPeerCannotStallJoins(t *testing.T) {
	_, ck := keys(t)
	coord, err := NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	coord.JobTimeout = 200 * time.Millisecond

	silent, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := coord.AcceptWorkers(1); !errors.Is(err, ErrHandshake) {
		t.Fatalf("err = %v, want ErrHandshake", err)
	}
	requirePeerClosed(t, silent)

	go coord.ServeJoins()
	silent2, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent2.Close()
	go func() { _ = NewWorker(1).Serve(coord.Addr()) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	requirePeerClosed(t, silent2)
}

// fakeCoordinator accepts one worker and plays a scripted handshake.
func fakeCoordinator(t *testing.T, script func(enc *gob.Encoder, dec *gob.Decoder)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		enc := gob.NewEncoder(conn)
		dec := gob.NewDecoder(conn)
		var hello Message
		if err := dec.Decode(&hello); err != nil {
			return
		}
		script(enc, dec)
	}()
	return ln.Addr().String()
}

// TestServeShutdown: after a good handshake, a Bye or the coordinator
// closing the connection is a clean shutdown, but a frame that does not
// decode as a Message is an error (pytfhe-worker exits 0 only on the
// first two). However Serve returns, it closes the scheduler it started at
// the handshake, so the goroutine count returns to where it was.
func TestServeShutdown(t *testing.T) {
	_, ck := keys(t)
	cases := []struct {
		name    string
		end     func(enc *gob.Encoder)
		wantErr bool
	}{
		{"bye", func(enc *gob.Encoder) { _ = enc.Encode(Message{Bye: true}) }, false},
		{"closed connection", func(*gob.Encoder) {}, false},
		{"malformed frame", func(enc *gob.Encoder) { _ = enc.Encode(42) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			addr := fakeCoordinator(t, func(enc *gob.Encoder, dec *gob.Decoder) {
				_ = enc.Encode(Message{Welcome: &Welcome{Version: ProtoVersion}})
				_ = enc.Encode(Message{Key: ck})
				tc.end(enc)
			})
			if err := NewWorker(4).Serve(addr); (err != nil) != tc.wantErr {
				t.Fatalf("Serve = %v, want error: %v", err, tc.wantErr)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines 5 s after Serve returned, %d before it started", runtime.NumGoroutine(), base)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func TestVersionMismatchRejectedByWorker(t *testing.T) {
	addr := fakeCoordinator(t, func(enc *gob.Encoder, dec *gob.Decoder) {
		_ = enc.Encode(Message{Welcome: &Welcome{Version: 99}})
	})
	if err := NewWorker(1).Serve(addr); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
}

func TestKeyMismatchRejectedByWorker(t *testing.T) {
	_, ck := keys(t)
	addr := fakeCoordinator(t, func(enc *gob.Encoder, dec *gob.Decoder) {
		_ = enc.Encode(Message{Welcome: &Welcome{Version: ProtoVersion, KeyHash: "not-the-key"}})
		_ = enc.Encode(Message{Key: ck})
	})
	if err := NewWorker(1).Serve(addr); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("err = %v, want ErrKeyMismatch", err)
	}
}

// TestMalformedKeyRejectedByWorker: a key broadcast with the wrong shape
// ends the handshake with a typed error before any engine is built on it;
// without the check the first job would index out of range in the worker.
func TestMalformedKeyRejectedByWorker(t *testing.T) {
	_, ck := keys(t)
	fullComplex := *ck.BK[0]
	n := ck.Params.PolyDegree
	fullComplex.Rows = nil
	for range ck.BK[0].Rows {
		fullComplex.Rows = append(fullComplex.Rows, []*torus.HalfPoly{torus.NewHalfPoly(n), torus.NewHalfPoly(n)})
	}
	cases := []struct {
		name string
		key  *boot.CloudKey
		want error
	}{
		{"no params", &boot.CloudKey{BK: ck.BK, KS: ck.KS}, ErrHandshake},
		{"short BK", &boot.CloudKey{Params: ck.Params, BK: ck.BK[:3], KS: ck.KS}, ErrHandshake},
		{"no key-switching key", &boot.CloudKey{Params: ck.Params, BK: ck.BK}, ErrHandshake},
		{"old full-complex key", &boot.CloudKey{
			Params: ck.Params,
			BK:     append([]*tgsw.HalfSample{&fullComplex}, ck.BK[1:]...),
			KS:     ck.KS,
		}, boot.ErrOldKeyFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeCoordinator(t, func(enc *gob.Encoder, dec *gob.Decoder) {
				_ = enc.Encode(Message{Welcome: &Welcome{Version: ProtoVersion}})
				_ = enc.Encode(Message{Key: tc.key})
			})
			err := NewWorker(1).Serve(addr)
			if !errors.Is(err, ErrHandshake) || !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want ErrHandshake wrapping %v", err, tc.want)
			}
		})
	}
}

func TestDialRetryExhaustsBudget(t *testing.T) {
	// Reserve a port and close it again: nobody listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	w := NewWorker(1)
	w.DialTimeout = 300 * time.Millisecond
	start := time.Now()
	err = w.Serve(addr)
	if !errors.Is(err, ErrDial) {
		t.Fatalf("err = %v, want ErrDial", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("gave up after %s without retrying", elapsed)
	}
}
