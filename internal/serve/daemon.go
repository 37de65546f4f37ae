package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pytfhe/internal/params"
)

// weightFlags collects repeated -tenant-weight KEYHASHPREFIX=WEIGHT
// flags into the Config.TenantWeights map.
type weightFlags map[string]float64

func (w weightFlags) String() string {
	parts := make([]string, 0, len(w))
	for prefix, weight := range w {
		parts = append(parts, fmt.Sprintf("%s=%g", prefix, weight))
	}
	return strings.Join(parts, ",")
}

func (w weightFlags) Set(v string) error {
	prefix, val, ok := strings.Cut(v, "=")
	if !ok || prefix == "" {
		return fmt.Errorf("want KEYHASHPREFIX=WEIGHT, got %q", v)
	}
	weight, err := strconv.ParseFloat(val, 64)
	if err != nil || weight <= 0 {
		return fmt.Errorf("weight must be a positive number, got %q", val)
	}
	w[prefix] = weight
	return nil
}

// noiseParamSet resolves the -noise-params flag.
func noiseParamSet(name string) (*params.GateParams, error) {
	switch name {
	case "test":
		return params.Test(), nil
	case "default128", "default":
		return params.Default128(), nil
	}
	return nil, fmt.Errorf("unknown noise parameter set %q (want test or default128)", name)
}

// RunDaemon parses daemon flags, starts a Server, and blocks until
// SIGTERM/SIGINT triggers a graceful drain: stop accepting, finish
// in-flight evaluations, then exit. It backs both `pytfhed` and
// `pytfhe serve`.
func RunDaemon(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pytfhed", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7701", "TCP listen address (port 0 picks a free port)")
	workers := fs.Int("workers", 0, "executor worker goroutines (0: NumCPU)")
	maxConc := fs.Int("max-concurrent", 0, "evaluations running at once (0: 2x workers)")
	queue := fs.Int("queue", 0, "admission queue bound beyond max-concurrent (0: 64)")
	timeout := fs.Duration("timeout", 0, "default per-request evaluation timeout (0: 5m)")
	batch := fs.Int("batch", 0, "bootstrap batch size per executor worker, amortized across a tenant's requests; also the fair scheduler's grain (0: 16, 1: unbatched)")
	noiseParams := fs.String("noise-params", "default128", "parameter set the admission noise analysis assumes: test or default128")
	minSigmas := fs.Float64("min-sigmas", 0, "sigma margin registered programs must keep under the noise analysis (0: default 4)")
	noNoise := fs.Bool("no-noise-check", false, "admit programs without the static noise-budget analysis")
	lut := fs.Bool("lut", false, "re-synthesize registered programs through lut-cluster: gate cones collapse into k-input programmable bootstraps before the plan compile")
	drainT := fs.Duration("drain-timeout", time.Minute, "grace period for in-flight work on shutdown")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	clusterListen := fs.String("cluster-listen", "", "run a cluster coordinator on this address; pytfhe-worker processes join it and evaluations run as cached plan shards")
	clusterWorkers := fs.Int("cluster-workers", 0, "workers the first cluster evaluation waits for (0: 2)")
	clusterJoinWait := fs.Duration("cluster-join-wait", 0, "bound on that first wait before sticky local fallback (0: 30s)")
	clusterAddrFile := fs.String("cluster-addr-file", "", "write the coordinator's worker-join address to this file once listening")
	metricsAddr := fs.String("metrics-addr", "", "serve a Prometheus-text /metrics endpoint on this address (port 0 picks a free port)")
	metricsAddrFile := fs.String("metrics-addr-file", "", "write the bound metrics address to this file once listening")
	tenantMaxInflight := fs.Int("tenant-max-inflight", 0, "per-tenant cap on concurrently admitted evaluations (0: unlimited)")
	tenantMaxQueued := fs.Int("tenant-max-queued-gates", 0, "per-tenant cap on the total gate count of admitted evaluations (0: unlimited)")
	weights := weightFlags{}
	fs.Var(weights, "tenant-weight", "fair-share weight for a tenant as KEYHASHPREFIX=WEIGHT (repeatable; the longest matching prefix wins, unmatched tenants weigh 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clusterAddrFile != "" && *clusterListen == "" {
		return fmt.Errorf("-cluster-addr-file needs -cluster-listen")
	}
	if *metricsAddrFile != "" && *metricsAddr == "" {
		return fmt.Errorf("-metrics-addr-file needs -metrics-addr")
	}
	np, err := noiseParamSet(*noiseParams)
	if err != nil {
		return err
	}

	srv := New(Config{
		Workers:              *workers,
		MaxConcurrent:        *maxConc,
		QueueCap:             *queue,
		DefaultTimeout:       *timeout,
		Batch:                *batch,
		NoiseParams:          np,
		NoiseMinSigmas:       *minSigmas,
		DisableNoiseCheck:    *noNoise,
		LUT:                  *lut,
		ClusterListen:        *clusterListen,
		ClusterWorkers:       *clusterWorkers,
		ClusterJoinWait:      *clusterJoinWait,
		MetricsAddr:          *metricsAddr,
		TenantMaxInFlight:    *tenantMaxInflight,
		TenantMaxQueuedGates: *tenantMaxQueued,
		TenantWeights:        weights,
	})
	if err := srv.Start(*listen); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pytfhed: serving on %s (workers=%d, max-concurrent=%d, queue=%d, batch=%d, lut=%v)\n",
		srv.Addr(), srv.cfg.Workers, srv.cfg.MaxConcurrent, srv.cfg.QueueCap, srv.cfg.Batch, srv.cfg.LUT)
	if ca := srv.ClusterAddr(); ca != "" {
		fmt.Fprintf(stdout, "pytfhed: cluster coordinator on %s (join with pytfhe-worker, waiting for %d)\n",
			ca, srv.cfg.ClusterWorkers)
	}
	if ma := srv.MetricsAddr(); ma != "" {
		fmt.Fprintf(stdout, "pytfhed: metrics on http://%s/metrics\n", ma)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			srv.Close()
			return err
		}
	}
	if *clusterAddrFile != "" {
		if err := os.WriteFile(*clusterAddrFile, []byte(srv.ClusterAddr()+"\n"), 0o644); err != nil {
			srv.Close()
			return err
		}
	}
	if *metricsAddrFile != "" {
		if err := os.WriteFile(*metricsAddrFile, []byte(srv.MetricsAddr()+"\n"), 0o644); err != nil {
			srv.Close()
			return err
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigCh
	signal.Stop(sigCh)
	fmt.Fprintf(stdout, "pytfhed: %v — draining (grace %v)\n", sig, *drainT)
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("pytfhed: drain cut short: %w", err)
	}
	fmt.Fprintln(stdout, "pytfhed: drained, exiting")
	return nil
}
