package main

import (
	"encoding/gob"
	"net"
	"sync"
	"testing"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/cluster"
	"pytfhe/internal/experiments"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/trand"
)

var (
	agreeOnce sync.Once
	agreeSK   *boot.SecretKey
	agreeCK   *boot.CloudKey
)

func agreeKeys(t testing.TB) (*boot.SecretKey, *boot.CloudKey) {
	t.Helper()
	agreeOnce.Do(func() {
		rng := trand.NewSeeded([]byte("cmd-pytfhe-agreement"))
		sk, ck, err := boot.GenerateKeys(params.Test(), rng)
		if err != nil {
			panic(err)
		}
		agreeSK, agreeCK = sk, ck
	})
	return agreeSK, agreeCK
}

// startShardCluster brings up a coordinator plus n in-process workers over
// localhost TCP, ready for RunSharded.
func startShardCluster(t *testing.T, ck *boot.CloudKey, n, slots int) *cluster.Coordinator {
	t.Helper()
	coord, err := cluster.NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		go func() { _ = cluster.NewWorker(slots).Serve(coord.Addr()) }()
	}
	if err := coord.AcceptWorkers(n); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// patternBits builds a deterministic, non-trivial input vector.
func patternBits(n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = (i*2654435761)>>4&1 == 1
	}
	return bits
}

// agreementTargets is the full matrix the sharded executor must agree on:
// the bench netlist plus every example circuit that `pytfhe check
// -examples` certifies.
func agreementTargets(t *testing.T) []checkTarget {
	t.Helper()
	ex, err := exampleNetlists()
	if err != nil {
		t.Fatal(err)
	}
	return append([]checkTarget{{"bench/ripple-imbalanced", experiments.ImbalancedNetlist()}}, ex...)
}

// TestClusterPlanAgreement is the cross-backend acceptance matrix:
// cluster-plan at 2 and 4 workers and the dynamic async executor must
// decrypt to the plaintext interpreter's outputs on the bench netlist and
// every example circuit. (The reference used to be a backend.Planned run;
// that is now the scheduler TestSharedAgreement sweeps over these same
// circuits, so it is not run a second time here.) Multi-thousand-gate targets are skipped under -short
// and under the race detector (the small targets cover the same code
// paths; full `go test ./...` and the CI shard job run everything).
func TestClusterPlanAgreement(t *testing.T) {
	sk, ck := agreeKeys(t)
	coord2 := startShardCluster(t, ck, 2, 2)
	coord4 := startShardCluster(t, ck, 4, 2)

	for _, tg := range agreementTargets(t) {
		big := len(tg.nl.Gates) > 1000
		t.Run(tg.name, func(t *testing.T) {
			if big && (testing.Short() || raceEnabled) {
				t.Skipf("skipping %d-gate target under -short/-race", len(tg.nl.Gates))
			}
			bits := patternBits(tg.nl.NumInputs)
			enc := backend.EncryptInputs(sk, bits)
			want, err := tg.nl.Evaluate(bits)
			if err != nil {
				t.Fatal(err)
			}

			runners := []struct {
				name string
				run  func(*circuit.Netlist, []*lwe.Sample) ([]*lwe.Sample, error)
			}{
				{"async(2)", backend.NewAsync(ck, 2, 1).Run},
				{"cluster-plan(2)", coord2.RunSharded},
				{"cluster-plan(4)", coord4.RunSharded},
			}
			for _, r := range runners {
				outs, err := r.run(tg.nl, enc)
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				got := backend.DecryptOutputs(sk, outs)
				if len(got) != len(want) {
					t.Fatalf("%s: %d outputs, want %d", r.name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: output %d = %v, plaintext interpreter says %v", r.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// dyingShardWorker joins the cluster over the real v2 protocol, caches its
// shard, then drops the connection on the first ShardStep — a worker crash
// in the middle of a sharded run.
func dyingShardWorker(t *testing.T, addr string) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer conn.Close()
		enc := gob.NewEncoder(conn)
		dec := gob.NewDecoder(conn)
		if err := enc.Encode(cluster.Message{Hello: &cluster.Hello{Slots: 1, Version: cluster.ProtoVersion}}); err != nil {
			return
		}
		var welcome, key cluster.Message
		if dec.Decode(&welcome) != nil || dec.Decode(&key) != nil {
			return
		}
		for {
			var msg cluster.Message
			if err := dec.Decode(&msg); err != nil {
				return
			}
			switch {
			case msg.ShardInit != nil:
				if enc.Encode(cluster.Message{ShardReady: &cluster.ShardReady{Hash: msg.ShardInit.Hash}}) != nil {
					return
				}
			case msg.ShardData != nil:
				if enc.Encode(cluster.Message{ShardReady: &cluster.ShardReady{Hash: msg.ShardData.Hash, Cached: true}}) != nil {
					return
				}
			case msg.Step != nil:
				return // crash mid-run
			default:
				return
			}
		}
	}()
	return done
}

// TestClusterPlanAgreementWorkerLoss injects a worker crash mid-run: one
// real worker plus one that dies on its first step. The run must re-host
// the dead worker's shard and still decrypt to the plaintext interpreter's
// outputs on the bench netlist.
func TestClusterPlanAgreementWorkerLoss(t *testing.T) {
	sk, ck := agreeKeys(t)
	coord, err := cluster.NewCoordinator(ck, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	coord.JobTimeout = 10 * time.Second
	go func() { _ = cluster.NewWorker(2).Serve(coord.Addr()) }()
	dead := dyingShardWorker(t, coord.Addr())
	if err := coord.AcceptWorkers(2); err != nil {
		t.Fatal(err)
	}

	nl := experiments.ImbalancedNetlist()
	bits := patternBits(nl.NumInputs)
	want, err := nl.Evaluate(bits)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := coord.RunSharded(nl, backend.EncryptInputs(sk, bits))
	if err != nil {
		t.Fatalf("sharded run with a dying worker: %v", err)
	}
	<-dead
	got := backend.DecryptOutputs(sk, outs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d = %v after worker loss, plaintext interpreter says %v", i, got[i], want[i])
		}
	}
	if lost := coord.Totals().WorkersLost; lost != 1 {
		t.Fatalf("WorkersLost = %d, want 1", lost)
	}
}
