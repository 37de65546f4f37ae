// Command pytfhe-bench is the repository's benchmark: it runs one named
// workload for a fixed window and prints, as the last line of its standard
// output, one JSON object with the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1) that BENCHMARK.json declares. bench/run.sh
// builds it together with pytfhed and pytfhe-worker; see bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"pytfhe/internal/trand"
)

// runDeadline fails a run whose daemon or worker hangs, inside the 180 s a
// run is allowed.
const runDeadline = 170 * time.Second

// metricSpec and benchSpec mirror BENCHMARK.json, which is the single list of
// metric names: a run refuses to emit a metric the file does not declare, and
// refuses to finish without an end-to-end metric it does declare.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	quick    bool // Test parameters and small programs everywhere: the smoke path
	strict   bool // a failed reconciliation fails the run
	root     string
	outDir   string
	tmpDir   string
	workers  int // W: workers, clients and connections; never more than nproc
}

// rng derives a named deterministic stream from the run's seed.
func (c *config) rng(purpose string) *trand.Source {
	return trand.NewSeeded(c.seedBytes(purpose))
}

func (c *config) seedBytes(purpose string) []byte {
	return []byte(fmt.Sprintf("pytfhe-bench/%s/%d/%s", c.workload, c.seed, purpose))
}

func (c *config) bin(name string) string {
	return filepath.Join(c.root, ".bench_build", "bin", name)
}

// outcome is what a workload measured.
type outcome struct {
	attempted int
	failed    int
	window    time.Duration      // wall-clock the measured operations covered
	metrics   map[string]float64 // by BENCHMARK.json name
	samples   map[string]int     // sample count behind a percentile or median
	notes     []string           // reconciliation lines and failure reasons

	unreconciled bool // a layer cross-check is off; fails the run only under -strict
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) setN(name string, v float64, n int) {
	o.metrics[name] = v
	o.samples[name] = n
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// reconcile records a layer cross-check and whether it held.
func (o *outcome) reconcile(ok bool, format string, args ...any) {
	o.notef(format+fmt.Sprintf(" reconciled=%v", ok), args...)
	o.unreconciled = o.unreconciled || !ok
}

// fail counts one wrong result or wrong path and records why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notef("FAILED: "+format, args...)
}

// setOps fills the metrics every workload derives the same way from its
// per-operation times: the logical gates of the operations that succeeded,
// over the wall-clock of the window.
func (o *outcome) setOps(ops []time.Duration, logicalGates int64, window time.Duration) {
	o.window = window
	secs := seconds(ops)
	o.setN("op_s_p50", median(secs), len(secs))
	o.setN("op_s_p90", percentile(secs, 90), len(secs))
	o.set("gates_per_s", float64(logicalGates)/window.Seconds())
}

var workloads = map[string]func(*config, *recorder) (*outcome, error){
	"hamming128_local": runHamming,
	"mnist_compile":    runMNIST,
	"serve_mix_test":   runServe,
	"cluster_dot_test": runCluster,
}

// procs holds every subprocess of the run; cleanup stops them and removes
// the temp dir, and runs on every exit path.
var procs children

func main() {
	var cfg config
	var traceFlag int
	var childMode, compareA string
	var spreadRuns int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for keys, inputs, images and the request sequence")
	secs := flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced pass, per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke path: Test parameters, MNIST_S at image 10, small cluster program")
	flag.BoolVar(&cfg.strict, "strict", false, "fail the run when a layer reconciliation is off")
	flag.StringVar(&cfg.root, "root", ".", "checkout root (holds BENCHMARK.json and .bench_build/)")
	flag.StringVar(&childMode, "child", "", "internal: run as the compile child (mnist, noop)")
	flag.IntVar(&spreadRuns, "spread", 0, "run every workload N times on seeds seed..seed+N-1, save the set under bench/out/ and print each metric's spread against its bound")
	flag.StringVar(&compareA, "compare", "", "with one more argument: compare two result sets written by -spread")
	flag.Parse()

	if childMode != "" {
		os.Exit(childMain(childMode))
	}
	spec, err := loadSpec(cfg.root)
	if err != nil {
		fatal(err)
	}
	cfg.outDir = filepath.Join(cfg.root, "bench", "out")
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	if compareA != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		os.Exit(compareSets(spec, compareA, flag.Arg(0)))
	}
	cfg.window = time.Duration(*secs * float64(time.Second))
	if cfg.window <= 0 {
		cfg.window = time.Duration(spec.RunSeconds) * time.Second
	}
	if spreadRuns > 0 {
		os.Exit(spreadMain(spec, &cfg, spreadRuns))
	}

	run, ok := workloads[cfg.workload]
	if !ok {
		var names []string
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", ")))
	}
	cfg.trace = traceFlag != 0
	cfg.workers = runtime.NumCPU()
	if cfg.tmpDir, err = os.MkdirTemp(cfg.outDir, "tmp-"); err != nil {
		fatal(err)
	}

	// Every exit path stops the children and removes the temp dir: normal
	// return, a failed workload, a signal, and the deadline.
	cleanup := func() {
		procs.stopAll()
		if err := os.RemoveAll(cfg.tmpDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}
	abort := func(why string) {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", cfg.workload, why)
		procs.dumpOutput(cfg.outDir, cfg.workload)
		cleanup()
		os.Exit(2)
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		abort(fmt.Sprintf("interrupted by %v", sig))
	}()
	watchdog := time.AfterFunc(runDeadline, func() { abort(fmt.Sprintf("no result after %v", runDeadline)) })

	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}
	out, err := run(&cfg, rec)
	watchdog.Stop()
	if err != nil {
		abort(err.Error())
	}
	if cfg.trace {
		out.set("trace.spans", float64(rec.count()))
		if err := rec.writeChrome(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			abort(err.Error())
		}
	}
	if out.failed > 0 {
		procs.dumpOutput(cfg.outDir, cfg.workload)
	}
	cleanup()

	line, err := report(spec, &cfg, out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if out.failed > 0 || (cfg.strict && out.unreconciled) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every measured metric by name with its unit, writes
// bench/out/result-<workload>.json, and returns the contract's result line:
// the end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one. A per-layer metric whose layer this workload does not exercise
// reads 0.
func report(spec *benchSpec, cfg *config, out *outcome) (string, error) {
	declared := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = m
	}
	names := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		if _, ok := declared[name]; !ok {
			return "", fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("workload %s seed %d window %.3fs trace %v quick %v W=%d\n",
		cfg.workload, cfg.seed, out.window.Seconds(), cfg.trace, cfg.quick, cfg.workers)
	for _, name := range names {
		n := ""
		if c, ok := out.samples[name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("  %-34s %16.6g %s%s\n", name, out.metrics[name], declared[name].Unit, n)
	}
	for _, note := range out.notes {
		fmt.Printf("  # %s\n", note)
	}
	fmt.Printf("  attempted %d, succeeded %d, failed %d\n", out.attempted, out.attempted-out.failed, out.failed)

	emit := spec.EndToEnd
	if cfg.trace {
		emit = spec.PerLayer
	}
	metrics := map[string]metricValue{}
	for _, m := range emit {
		v, ok := out.metrics[m.Name]
		if !ok && !cfg.trace {
			return "", fmt.Errorf("end-to-end metric %q was not measured on %s", m.Name, cfg.workload)
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	result := map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}
	line, err := json.Marshal(result)
	if err != nil {
		return "", err
	}

	detail := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace, "quick": cfg.quick,
		"window_requested_s": cfg.window.Seconds(), "window_measured_s": out.window.Seconds(),
		"result": result, "all_metrics": out.metrics, "samples": out.samples, "notes": out.notes,
		"env": environment(cfg),
	}
	data, err := json.MarshalIndent(detail, "", "  ")
	if err != nil {
		return "", err
	}
	suffix := ""
	if cfg.trace {
		suffix = "-traced"
	}
	path := filepath.Join(cfg.outDir, "result-"+cfg.workload+suffix+".json")
	return string(line), os.WriteFile(path, data, 0o644)
}

// environment records what a number depends on besides the code.
func environment(cfg *config) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown" // the driver's checkout is not a git repository
	if data, err := os.ReadFile(filepath.Join(cfg.root, ".git", "HEAD")); err == nil {
		commit = strings.TrimSpace(string(data))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			if data, err := os.ReadFile(filepath.Join(cfg.root, ".git", ref)); err == nil {
				commit = strings.TrimSpace(string(data))
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "workers": cfg.workers,
		"go": runtime.Version(), "cpu": cpu, "commit": commit,
	}
}
