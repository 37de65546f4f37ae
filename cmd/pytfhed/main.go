// Command pytfhed is the persistent PyTFHE evaluation daemon: a
// multi-tenant TCP server with a program registry (upload a PyTFHE binary
// once, evaluate it many times), per-session cloud keys, a bounded
// admission queue with ErrOverloaded backpressure, and one shared executor
// replaying every request's plan, interleaved slice by slice. A program's
// plan is compiled when it is registered; no evaluation compiles.
//
//	pytfhed -listen 127.0.0.1:7701 -workers 8 -max-concurrent 16 -queue 64
//
// Multi-tenant QoS and observability (internal/qos, internal/telemetry):
//
//	pytfhed -metrics-addr 127.0.0.1:9090 \
//	        -tenant-max-inflight 4 -tenant-max-queued-gates 4096 \
//	        -tenant-weight ab12cd34=4
//
// Tenants are identified by their cloud-key hash; the shared executor
// serves them with start-time fair queuing weighted by -tenant-weight (the
// longest matching prefix wins), and per-tenant quotas reject excess load
// with a typed quota error. /metrics on -metrics-addr exports Prometheus
// text rendered from the same snapshot the Stats RPC returns.
//
// SIGTERM/SIGINT triggers a graceful drain: the daemon stops accepting,
// finishes in-flight evaluations, then exits. Clients use the `pytfhe`
// subcommands register, eval and server-stats, or serve.Client in Go.
package main

import (
	"fmt"
	"os"

	"pytfhe/internal/serve"
)

func main() {
	if err := serve.RunDaemon(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pytfhed: %v\n", err)
		os.Exit(1)
	}
}
