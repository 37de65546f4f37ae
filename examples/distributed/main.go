// Distributed execution: spin up a coordinator and several worker
// processes-worth of goroutines connected over real TCP sockets (the
// in-repo equivalent of a Ray cluster), broadcast the cloud key, and
// evaluate a VIP-Bench kernel with the wavefront schedule of Algorithm 1,
// each wavefront a level of a compiled plan whose gates were placed on
// workers at compile time.
//
// In a real deployment the workers run `pytfhe-worker -join <addr>` on
// separate machines; here they share the process but still talk through
// the loopback interface: each worker's shard of the plan crosses a socket
// once, then every run ships only the input and boundary ciphertexts (the
// values that pass between workers): the communication the paper profiles
// in Fig. 7.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/cluster"
	"pytfhe/internal/core"
	"pytfhe/internal/params"
	"pytfhe/internal/vipbench"
)

func main() {
	const workers = 3
	const slotsPerWorker = 2

	fmt.Println("generating keys (test parameters)...")
	kp, err := core.GenerateKeys(params.Test())
	if err != nil {
		log.Fatal(err)
	}

	coord, err := cluster.NewCoordinator(kp.Cloud, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	fmt.Printf("coordinator listening on %s\n", coord.Addr())
	for i := 0; i < workers; i++ {
		go func(id int) {
			if err := cluster.NewWorker(slotsPerWorker).Serve(coord.Addr()); err != nil {
				log.Printf("worker %d: %v", id, err)
			}
		}(i)
	}
	if err := coord.AcceptWorkers(workers); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d workers joined (%d slots total), cloud key broadcast\n",
		workers, workers*slotsPerWorker)

	bench, err := vipbench.ByName("roberts-cross")
	if err != nil {
		log.Fatal(err)
	}
	nl, err := bench.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s (%d gates)\n", bench.Name, len(nl.Gates))

	// An 8x8 test image with a vertical edge.
	vals := make([]uint64, 64)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			vals[y*8+x] = 200
		}
	}
	bits, err := bench.EncodeInputs(vals)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	outs, err := coord.Run(nl, kp.EncryptBits(bits))
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	st := coord.LastStat
	fmt.Printf("distributed run: %v (%d wavefronts, %d bootstraps, %.1f KB shipped)\n",
		elapsed.Round(time.Millisecond), st.Levels, st.Bootstraps, float64(st.BytesSent)/1024)

	got, err := bench.DecodeOutputs(kp.DecryptBits(outs))
	if err != nil {
		log.Fatal(err)
	}
	want := bench.Ref(vals)
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("output %d: distributed %d, reference %d", i, got[i], want[i])
		}
	}
	fmt.Println("edge map matches the plaintext reference. OK")

	// Compare against the in-process single-core backend.
	single := backend.NewSingle(kp.Cloud)
	start = time.Now()
	if _, err := single.Run(nl, kp.EncryptBits(bits)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-core reference: %v\n", time.Since(start).Round(time.Millisecond))
}
