// Command pytfhe-worker joins a PyTFHE cluster as an evaluation worker: it
// dials the coordinator (retrying with capped backoff while it comes up),
// receives the broadcast cloud key, and runs the levels of its cached plan
// shards until the coordinator shuts down — the role a Ray actor plays in
// the paper's distributed CPU backend.
//
//	pytfhe-worker -join 10.0.0.1:7700 -slots 18 -shard-cache 8
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"pytfhe/internal/cluster"
)

func main() {
	join := flag.String("join", "127.0.0.1:7700", "coordinator address")
	slots := flag.Int("slots", runtime.NumCPU(), "parallel gate engines to run")
	shardCache := flag.Int("shard-cache", cluster.DefaultShardCache, "plan shards to keep cached across runs (LRU)")
	dialTimeout := flag.Duration("dial-timeout", cluster.DefaultDialTimeout, "total budget for dial retries before giving up")
	flag.Parse()

	fmt.Printf("pytfhe-worker: joining %s with %d slots\n", *join, *slots)
	w := cluster.NewWorker(*slots)
	w.ShardCache = *shardCache
	w.DialTimeout = *dialTimeout
	if err := w.Serve(*join); err != nil {
		fmt.Fprintf(os.Stderr, "pytfhe-worker: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("pytfhe-worker: coordinator closed the session, exiting")
}
