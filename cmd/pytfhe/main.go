// Command pytfhe is the PyTFHE command-line toolchain:
//
//	pytfhe keygen     -params test|default128 -out keys/
//	pytfhe compile    -bench <vip-bench name> | -mnist S|M|L [-image N] [-lut] -out prog.ptfhe [-verilog prog.v]
//	pytfhe inspect    -prog prog.ptfhe [-listing]
//	pytfhe lint       prog.ptfhe  (or -prog prog.ptfhe)
//	pytfhe check      prog.ptfhe | -bench | -examples [-params test|default128] [-min-sigmas S]
//	pytfhe run        -prog prog.ptfhe -keys keys/ -backend auto|plain|single|pool:N|plan:N|cluster:addr [-batch N (default 16)] [-strict] -in 1011,0110,...
//	pytfhe calibrate  -keys keys/ [-samples N]
//	pytfhe serve      [-listen addr] [-max-concurrent N] [-queue N] [-batch N]   (the pytfhed daemon, in-process)
//	pytfhe register   -server addr -prog prog.ptfhe
//	pytfhe eval       -server addr -keys keys/ (-prog prog.ptfhe | -hash H) -in 1011...
//	pytfhe server-stats -server addr [-json]
//
// Programs are PyTFHE binaries (the 128-bit instruction format of the
// paper); keys serialize with encoding/gob. LUT clustering is chosen at
// compile time (`compile -lut`); run, serve and register execute a binary
// exactly as it was compiled.
package main

import (
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pytfhe/internal/asm"
	"pytfhe/internal/backend"
	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/cluster"
	"pytfhe/internal/core"
	"pytfhe/internal/models"
	"pytfhe/internal/params"
	"pytfhe/internal/serve"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/noise"
	"pytfhe/internal/verilog"
	"pytfhe/internal/vipbench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "keygen":
		err = cmdKeygen(os.Args[2:])
	case "compile":
		err = cmdCompile(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "lint":
		err = cmdLint(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "calibrate":
		err = cmdCalibrate(os.Args[2:])
	case "serve":
		err = serve.RunDaemon(os.Args[2:], os.Stdout)
	case "register":
		err = cmdRegister(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "server-stats":
		err = cmdServerStats(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pytfhe: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pytfhe: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pytfhe <command> [flags]

commands:
  keygen     generate a secret/cloud key pair
  compile    compile a VIP-Bench kernel or MNIST model to a PyTFHE binary
  inspect    show the structure of a PyTFHE binary
  lint       statically verify a PyTFHE binary (cycles, wiring, gate types)
  check      run the semantic analyses: noise-budget dataflow and plan soundness
  run        execute a PyTFHE binary over encrypted inputs
  calibrate  measure the single-core bootstrapped-gate time
  serve      run the pytfhed evaluation daemon in-process
  register   upload a PyTFHE binary to a pytfhed daemon
  eval       evaluate a registered program on a pytfhed daemon
  server-stats  print a pytfhed daemon's statistics`)
}

func paramSet(name string) (*params.GateParams, error) {
	switch name {
	case "test":
		return params.Test(), nil
	case "default128", "default":
		return params.Default128(), nil
	}
	return nil, fmt.Errorf("unknown parameter set %q (want test or default128)", name)
}

func cmdKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	pname := fs.String("params", "default128", "parameter set: test or default128")
	out := fs.String("out", "keys", "output directory")
	fs.Parse(args)

	p, err := paramSet(*pname)
	if err != nil {
		return err
	}
	fmt.Printf("generating %s keys (n=%d, N=%d)...\n", p.Name, p.LWEDimension, p.PolyDegree)
	kp, err := core.GenerateKeys(p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := writeGob(filepath.Join(*out, "secret.key"), kp.Secret); err != nil {
		return err
	}
	if err := writeGob(filepath.Join(*out, "cloud.key"), kp.Cloud); err != nil {
		return err
	}
	fmt.Printf("wrote %s/secret.key and %s/cloud.key\n", *out, *out)
	return nil
}

func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	bench := fs.String("bench", "", "VIP-Bench kernel name (see internal/vipbench)")
	mnist := fs.String("mnist", "", "MNIST model size: S, M or L")
	attention := fs.String("attention", "", "attention layer size: S or L")
	image := fs.Int("image", 0, "override MNIST image size (e.g. 10 for a quick build)")
	dtype := fs.String("dtype", "fixed8.8", "model data type: sintW, fixedI.F or floatE.M (e.g. sint8, fixed8.8, float5.11)")
	out := fs.String("out", "prog.ptfhe", "output binary path")
	vout := fs.String("verilog", "", "also emit structural Verilog to this path")
	lut := fs.Bool("lut", false, "cluster fanout-free gate cones into k-input LUT records (synth lut-cluster pass)")
	fs.Parse(args)

	dt, err := parseDType(*dtype)
	if err != nil {
		return err
	}
	compile := core.Compile
	if *lut {
		compile = core.CompileLUT
	}

	var prog *core.Program
	switch {
	case *bench != "":
		b, err := vipbench.ByName(*bench)
		if err != nil {
			names := make([]string, 0, 18)
			for _, bb := range vipbench.All() {
				names = append(names, bb.Name)
			}
			return fmt.Errorf("%w\navailable: %s", err, strings.Join(names, ", "))
		}
		nl, err := b.Build()
		if err != nil {
			return err
		}
		prog, err = compile(nl)
		if err != nil {
			return err
		}
	case *mnist != "":
		var spec models.MNISTSpec
		switch strings.ToUpper(*mnist) {
		case "S":
			spec = models.MNISTS()
		case "M":
			spec = models.MNISTM()
		case "L":
			spec = models.MNISTL()
		default:
			return fmt.Errorf("unknown MNIST size %q", *mnist)
		}
		if *image > 0 {
			spec = spec.Scaled(*image)
		}
		w, err := vipbench.CompileMNIST(spec, dt)
		if err != nil {
			return err
		}
		prog, err = compile(w.Netlist)
		if err != nil {
			return err
		}
	case *attention != "":
		var spec models.AttentionSpec
		switch strings.ToUpper(*attention) {
		case "S":
			spec = models.AttentionS()
		case "L":
			spec = models.AttentionL()
		default:
			return fmt.Errorf("unknown attention size %q", *attention)
		}
		w, err := vipbench.CompileAttention(spec, dt)
		if err != nil {
			return err
		}
		prog, err = compile(w.Netlist)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -bench, -mnist or -attention is required")
	}

	if err := os.WriteFile(*out, prog.Binary, 0o644); err != nil {
		return err
	}
	s := prog.Stats
	lutNote := ""
	if s.LUTs > 0 {
		lutNote = fmt.Sprintf(", %d LUTs", s.LUTs)
	}
	fmt.Printf("%s: %d inputs, %d gates (%d bootstrapped%s), %d outputs, depth %d -> %s (%d bytes)\n",
		prog.Name, s.Inputs, s.Gates, s.Bootstrapped, lutNote, s.Outputs, s.Depth, *out, len(prog.Binary))
	if *vout != "" {
		src, err := verilog.Emit(prog.Netlist)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*vout, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote Verilog to %s\n", *vout)
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	path := fs.String("prog", "", "PyTFHE binary path")
	listing := fs.Bool("listing", false, "print the full instruction listing")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("-prog is required")
	}
	bin, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	prog, err := core.Load(bin)
	if err != nil {
		return err
	}
	s := prog.Stats
	fmt.Printf("instructions: %d (16 bytes each)\n", len(bin)/16)
	fmt.Printf("inputs: %d  gates: %d (bootstrapped %d, free %d, LUTs %d)  outputs: %d\n",
		s.Inputs, s.Gates, s.Bootstrapped, s.Free, s.LUTs, s.Outputs)
	fmt.Printf("depth: %d  wavefronts: %d  widest level: %d\n", s.Depth, s.Levels, s.MaxWidth)
	if *listing {
		text, err := asm.Listing(bin)
		if err != nil {
			return err
		}
		fmt.Print(text)
	}
	return nil
}

// cmdLint statically verifies a program binary: binary framing, gate-graph
// wiring (cycles, undriven wires, bad gate types), output ports, dead
// logic, and the depth/fan-out structure report.
func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	path := fs.String("prog", "", "PyTFHE binary path (or pass it as the argument)")
	fs.Parse(args)
	if *path == "" && fs.NArg() == 1 {
		*path = fs.Arg(0)
	}
	if *path == "" {
		return fmt.Errorf("usage: pytfhe lint <prog.ptfhe>")
	}
	bin, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	rep := asm.Lint(bin)
	rep.Name = filepath.Base(*path)
	fmt.Print(rep)
	return rep.Err()
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	path := fs.String("prog", "", "PyTFHE binary path")
	keys := fs.String("keys", "keys", "key directory from `pytfhe keygen`")
	be := fs.String("backend", "auto", "plain, single, pool[:N], plan[:N], cluster:addr, or auto")
	workers := fs.Int("workers", 1, "worker count for auto/pool/plan without an explicit :N")
	clusterWorkers := fs.Int("cluster-workers", 2, "workers to wait for on the cluster backend")
	batch := fs.Int("batch", runBatchDefault, "bootstrap batch size for the plan backend: each worker fuses up to N bootstrapped instructions of a level into one amortized blind-rotation dispatch (0: the default, "+strconv.Itoa(backend.DefaultBatch)+"; 1: unbatched, and with one worker auto picks single)")
	stats := fs.Bool("stats", false, "print executor statistics after the run")
	strict := fs.Bool("strict", false, "verify the program's noise budget before running it; refuse to run one over budget")
	in := fs.String("in", "", "input bits as 0/1 characters (LSB first), e.g. 10110")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("-prog is required")
	}
	bin, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	prog, err := core.Load(bin)
	if err != nil {
		return err
	}
	bits, err := parseBits(*in)
	if err != nil {
		return err
	}
	if len(bits) != prog.Stats.Inputs {
		return fmt.Errorf("program takes %d input bits, got %d", prog.Stats.Inputs, len(bits))
	}

	if *be == "plain" {
		// No key carries a parameter set on the plain path; strict mode
		// checks the noise budget against the production default.
		if *strict {
			if err := noise.CheckNetlist(prog.Netlist, params.Default128()); err != nil {
				return err
			}
		}
		out, err := core.RunPlain(prog, bits)
		if err != nil {
			return err
		}
		fmt.Printf("outputs: %s\n", formatBits(out))
		return nil
	}

	kp, err := loadKeys(*keys)
	if err != nil {
		return err
	}
	if *strict {
		if err := noise.CheckNetlist(prog.Netlist, kp.Cloud.Params); err != nil {
			return err
		}
	}

	spec, err := parseBackendSpec(*be, *workers, *batch)
	if err != nil {
		return err
	}
	var runner backend.Backend
	if spec.kind == "cluster" {
		coord, err := cluster.NewCoordinator(kp.Cloud, spec.addr)
		if err != nil {
			return err
		}
		defer coord.Close()
		fmt.Printf("coordinator listening on %s, waiting for %d workers...\n", coord.Addr(), *clusterWorkers)
		if err := coord.AcceptWorkers(*clusterWorkers); err != nil {
			return err
		}
		runner = coord
	} else {
		runner = spec.build(kp.Cloud)
		if p, ok := runner.(*backend.Planned); ok {
			defer p.Close()
		}
	}

	fmt.Printf("encrypting %d input bits...\n", len(bits))
	cts := kp.EncryptBits(bits)
	fmt.Printf("evaluating %d gates on %s...\n", prog.Stats.Gates, runner.Name())
	outs, err := core.Run(prog, runner, cts)
	if err != nil {
		return err
	}
	fmt.Printf("outputs: %s\n", formatBits(kp.DecryptBits(outs)))
	if *stats {
		printRunStats(runner, kp.Cloud.Params.CiphertextBytes())
	}
	return nil
}

// runBatchDefault is `pytfhe run`'s -batch default: unset, which
// parseBackendSpec resolves to backend.DefaultBatch on the plan backend.
const runBatchDefault = 0

// backendSpec is a parsed -backend/-workers/-batch selection, kept separate
// from construction so it can be validated without keys.
type backendSpec struct {
	kind    string // "single", "pool", "plan", "cluster"
	workers int
	addr    string // listen address for the cluster backend
	batch   int    // bootstrap batch size (plan; 1: unbatched)
}

// parseBackendSpec resolves the -backend flag. batch 0 is an unset -batch
// flag: the plan backend then batches at backend.DefaultBatch, so "auto"
// replays a batched plan at any worker count and picks the single-core
// evaluator only for one worker at an explicit -batch 1; the barriered
// pool remains selectable as the Algorithm 1 baseline. A negative batch is
// an error, and so is an explicit -batch N > 1 where it would be ignored:
// single and pool evaluate gate by gate, and cluster workers batch their
// own shard levels. The cluster operand is a listen address
// ("cluster:127.0.0.1:7700"), not a worker count.
func parseBackendSpec(s string, workers, batch int) (backendSpec, error) {
	if batch < 0 {
		return backendSpec{}, fmt.Errorf("bad -batch %d (want 0 for the default, %d, or a batch size >= 1)", batch, backend.DefaultBatch)
	}
	workers = max(workers, 1)
	kind, arg, hasArg := strings.Cut(s, ":")
	switch kind {
	case "auto", "single", "pool", "plan":
	case "cluster":
		if arg == "" {
			return backendSpec{}, fmt.Errorf("backend cluster needs a listen address, e.g. cluster:127.0.0.1:7700")
		}
		if batch > 1 {
			return backendSpec{}, fmt.Errorf("-batch does not apply to -backend cluster: cluster workers batch their own shard levels")
		}
		return backendSpec{kind: kind, addr: arg, batch: 1}, nil
	default:
		return backendSpec{}, fmt.Errorf("unknown backend %q (want plain, single, pool[:N], plan[:N], cluster:addr or auto)", s)
	}
	count := workers
	if hasArg {
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return backendSpec{}, fmt.Errorf("bad %s worker count %q", kind, arg)
		}
		count = n
	}
	switch kind {
	case "auto":
		if count == 1 && batch == 1 {
			return backendSpec{kind: "single", workers: 1, batch: 1}, nil
		}
	case "single", "pool":
		if batch > 1 {
			return backendSpec{}, fmt.Errorf("-batch needs the plan backend (got -backend %s)", s)
		}
		if kind == "single" {
			count = 1
		}
		return backendSpec{kind: kind, workers: count, batch: 1}, nil
	}
	if batch == 0 {
		batch = backend.DefaultBatch
	}
	return backendSpec{kind: "plan", workers: count, batch: batch}, nil
}

func (bs backendSpec) build(ck *boot.CloudKey) backend.Backend {
	switch bs.kind {
	case "pool":
		return backend.NewPool(ck, bs.workers)
	case "plan":
		return backend.NewPlanned(ck, bs.workers, bs.batch)
	}
	return backend.NewSingle(ck)
}

// printRunStats reports the executor breakdown recorded by the last Run.
// ctBytes is the serialized ciphertext size (the paper's ≈2.46 KB pin at
// n=630), used to contextualize the cluster backend's wire traffic.
func printRunStats(runner backend.Backend, ctBytes int) {
	switch r := runner.(type) {
	case *cluster.Coordinator:
		printClusterStats(r.LastStat, ctBytes)
		return
	case *backend.Planned:
		ps := r.PlanStats
		fmt.Printf("plan:  %d logical bootstraps captured as %d executed (%d levels, %d arena slots), compiled in %v\n",
			ps.LogicalBootstraps, ps.ExecBootstraps, ps.Levels, ps.ArenaSlots,
			ps.CompileTime.Round(time.Microsecond))
	}
	rep, ok := runner.(interface{ LastRun() backend.RunStats })
	if !ok {
		return
	}
	st := rep.LastRun()
	lutNote := ""
	if st.LUTs > 0 {
		lutNote = fmt.Sprintf(", %d LUTs", st.LUTs)
	}
	fmt.Printf("stats: %d gates (%d bootstrapped%s) in %v — %.1f gates/s, %.1f bootstraps/s\n",
		st.Gates, st.Bootstraps, lutNote, st.Elapsed.Round(time.Millisecond), st.GatesPerSec, st.BootstrapsPerSec)
	if st.Workers > 0 {
		fmt.Printf("       %d workers, %d wavefronts", st.Workers, st.Levels)
		if st.WorkerBusy > 0 {
			fmt.Printf(", %.0f%% utilization, avg queue wait %v",
				100*st.Utilization, st.AvgQueueWait.Round(time.Microsecond))
		}
		fmt.Println()
	}
	if st.Batches > 0 {
		fmt.Printf("batch: %d dispatches covering %d bootstraps (avg fill %.1f of %d)\n",
			st.Batches, st.BatchedBootstraps, st.AvgBatchFill, st.BatchSize)
	}
}

// printClusterStats reports a distributed run: throughput, then wire
// traffic — the estimate next to the measured socket counters — and the
// shard-cache economics.
func printClusterStats(st cluster.Stats, ctBytes int) {
	boots := float64(st.Bootstraps) / st.Elapsed.Seconds()
	fmt.Printf("stats: %d workers (%d slots), %d gates (%d bootstrapped) over %d levels in %v — %.1f bootstraps/s\n",
		st.Workers, st.Slots, st.Gates, st.Bootstraps, st.Levels, st.Elapsed.Round(time.Millisecond), boots)
	if st.WorkersLost > 0 {
		fmt.Printf("       %d workers lost mid-run, plan rerun on the survivors\n", st.WorkersLost)
	}
	fmt.Printf("wire:  %d samples out, %d back at %.2f KB/ciphertext — estimate %.1f KB, measured %.1f KB out / %.1f KB in\n",
		st.SamplesSent, st.SamplesReceived, float64(ctBytes)/1024,
		float64(st.BytesSent)/1024, float64(st.WireBytesSent)/1024, float64(st.WireBytesRecv)/1024)
	if st.ShardHits+st.ShardMisses > 0 {
		fmt.Printf("shard: %d hits, %d misses, %d reships — %.1f KB of shards shipped, %.1f KB boundary traffic\n",
			st.ShardHits, st.ShardMisses, st.ShardReships,
			float64(st.ShardBytesShipped)/1024, float64(st.BoundaryBytes)/1024)
	}
}

// cmdRegister uploads a program binary to a running pytfhed daemon.
func cmdRegister(args []string) error {
	fs := flag.NewFlagSet("register", flag.ExitOnError)
	server := fs.String("server", "127.0.0.1:7701", "pytfhed address")
	path := fs.String("prog", "", "PyTFHE binary path")
	fs.Parse(args)
	if *path == "" && fs.NArg() == 1 {
		*path = fs.Arg(0)
	}
	if *path == "" {
		return fmt.Errorf("-prog is required")
	}
	bin, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	cl, err := serve.Dial(*server)
	if err != nil {
		return err
	}
	defer cl.Close()
	info, err := cl.RegisterProgram(bin)
	if err != nil {
		return err
	}
	state := "admitted"
	if info.Cached {
		state = "cached"
	}
	fmt.Printf("%s (%s): %d inputs, %d gates (%d bootstrapped), %d outputs, depth %d\n",
		info.Name, state, info.Inputs, info.Gates, info.Bootstrapped, info.Outputs, info.Depth)
	fmt.Printf("hash: %s\n", info.Hash)
	return nil
}

// cmdEval opens a session (cloud-key upload) against a pytfhed daemon and
// evaluates one registered program over encrypted inputs; decryption stays
// client-side, under the secret key the server never sees.
func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	server := fs.String("server", "127.0.0.1:7701", "pytfhed address")
	keys := fs.String("keys", "keys", "key directory from `pytfhe keygen`")
	path := fs.String("prog", "", "PyTFHE binary to register and evaluate")
	hash := fs.String("hash", "", "hash of an already-registered program")
	in := fs.String("in", "", "input bits as 0/1 characters (LSB first)")
	timeout := fs.Duration("timeout", 0, "per-request timeout (0: server default)")
	fs.Parse(args)
	if (*path == "") == (*hash == "") {
		return fmt.Errorf("exactly one of -prog or -hash is required")
	}
	bits, err := parseBits(*in)
	if err != nil {
		return err
	}

	kp, err := loadKeys(*keys)
	if err != nil {
		return err
	}

	cl, err := serve.Dial(*server)
	if err != nil {
		return err
	}
	defer cl.Close()

	progHash := *hash
	nInputs := len(bits)
	if *path != "" {
		bin, err := os.ReadFile(*path)
		if err != nil {
			return err
		}
		info, err := cl.RegisterProgram(bin)
		if err != nil {
			return err
		}
		progHash = info.Hash
		nInputs = info.Inputs
		fmt.Printf("registered %s as %.16s…\n", info.Name, info.Hash)
	}
	if len(bits) != nInputs {
		return fmt.Errorf("program takes %d input bits, got %d", nInputs, len(bits))
	}
	sess, err := cl.OpenSession(kp.Cloud)
	if err != nil {
		return err
	}
	fmt.Printf("session %d open, cloud key uploaded — evaluating %d encrypted bits\n", sess.ID, len(bits))
	outs, err := cl.EvaluateTimeout(progHash, kp.EncryptBits(bits), *timeout)
	if err != nil {
		return err
	}
	fmt.Printf("outputs: %s\n", formatBits(kp.DecryptBits(outs)))
	return nil
}

// cmdServerStats prints a pytfhed statistics snapshot.
func cmdServerStats(args []string) error {
	fs := flag.NewFlagSet("server-stats", flag.ExitOnError)
	server := fs.String("server", "127.0.0.1:7701", "pytfhed address")
	asJSON := fs.Bool("json", false, "emit the raw statistics snapshot as JSON (stable wire field names)")
	fs.Parse(args)
	cl, err := serve.Dial(*server)
	if err != nil {
		return err
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Printf("uptime %v, %d sessions, %d programs registered\n",
		(time.Duration(st.UptimeMs) * time.Millisecond).Round(time.Second), st.Sessions, st.Programs)
	fmt.Printf("evaluations: %d done, %d shed (overloaded), %d quota-rejected, queue depth %d, in flight %d\n",
		st.Evaluations, st.Rejected, st.QuotaRejected, st.QueueDepth, st.InFlight)
	fmt.Printf("executor: %d plan instructions executed, %.1f instructions/s, %.1f bootstraps/s\n",
		st.ExecutorGates, st.GatesPerSec, st.BootstrapsPerSec)
	if st.LUTsEvaluated > 0 || st.ExecutorLUTs > 0 {
		fmt.Printf("luts: %d multi-input LUT gates evaluated (%d LUT instructions executed locally after plan dedup)\n",
			st.LUTsEvaluated, st.ExecutorLUTs)
	}
	fmt.Printf("plans: %d compiled at registration, %d evaluations replayed them, arena high water %d ciphertexts\n",
		st.PlanMisses, st.PlanHits, st.ArenaHighWater)
	if st.KeysReleased > 0 {
		fmt.Printf("keys released: %d (engines freed on last session close)\n", st.KeysReleased)
	}
	for tenant, picks := range st.TenantPicks {
		fmt.Printf("tenant %s: %d scheduler picks, %d level slices queued\n",
			tenant, picks, st.TenantQueued[tenant])
	}
	if st.Batches > 0 {
		fmt.Printf("batching: %d dispatches covering %d bootstraps (avg fill %.1f of %d), %d spanning multiple requests\n",
			st.Batches, st.BatchedBootstraps, st.AvgBatchFill, st.BatchSize, st.CrossRunBatches)
	}
	if cs := st.Cluster; cs != nil {
		fmt.Printf("cluster: %d workers (%d lost) — %d sharded evaluations, %d local fallbacks\n",
			cs.Workers, cs.WorkersLost, cs.Evals, cs.Fallbacks)
		fmt.Printf("  shards: %d hits, %d misses, %d reships — boundary traffic %.1f KB of %.1f KB sent / %.1f KB received\n",
			cs.ShardHits, cs.ShardMisses, cs.ShardReships,
			float64(cs.BoundaryBytes)/1024, float64(cs.WireBytesSent)/1024, float64(cs.WireBytesRecv)/1024)
	}
	for hash, hits := range st.PerProgram {
		if lat, ok := st.PerProgramLatency[hash]; ok && lat.Samples > 0 {
			fmt.Printf("  %.16s… %d evaluations, p50 %.1fms, p95 %.1fms\n",
				hash, hits, lat.P50Ms, lat.P95Ms)
		} else {
			fmt.Printf("  %.16s… %d evaluations\n", hash, hits)
		}
		if pn := st.ProgramNoise[hash]; pn.Checked {
			fmt.Printf("    noise: %.1f bits headroom under %s (worst %.2f sigmas, failure prob %.2e)\n",
				pn.HeadroomBits, pn.Params, pn.WorstSigmas, pn.FailureProb)
		}
	}
	return nil
}

func cmdCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	keys := fs.String("keys", "", "key directory (empty: generate fresh test-parameter keys)")
	pname := fs.String("params", "default128", "parameter set when generating")
	samples := fs.Int("samples", 5, "gates to time")
	fs.Parse(args)

	var kp *core.KeyPair
	if *keys != "" {
		var err error
		if kp, err = loadKeys(*keys); err != nil {
			return err
		}
	} else {
		p, err := paramSet(*pname)
		if err != nil {
			return err
		}
		fmt.Printf("generating %s keys...\n", p.Name)
		kp, err = core.GenerateKeys(p)
		if err != nil {
			return err
		}
	}
	gt, err := core.CalibrateGateTime(kp, *samples)
	if err != nil {
		return err
	}
	fmt.Printf("bootstrapped gate time: %v (%.1f gates/s single core)\n", gt, 1e9/float64(gt.Nanoseconds()))
	return nil
}

// parseDType parses the ChiselTorch data type notation: sint8, fixed8.8,
// float5.11.
func parseDType(s string) (chiseltorch.DType, error) {
	var a, b int
	switch {
	case strings.HasPrefix(s, "sint"):
		if _, err := fmt.Sscanf(s, "sint%d", &a); err != nil || a <= 0 {
			return nil, fmt.Errorf("bad dtype %q", s)
		}
		return chiseltorch.NewSInt(a), nil
	case strings.HasPrefix(s, "fixed"):
		if _, err := fmt.Sscanf(s, "fixed%d.%d", &a, &b); err != nil || a <= 0 || b < 0 {
			return nil, fmt.Errorf("bad dtype %q", s)
		}
		return chiseltorch.NewFixed(a, b), nil
	case strings.HasPrefix(s, "float"):
		if _, err := fmt.Sscanf(s, "float%d.%d", &a, &b); err != nil || a <= 0 || b <= 0 {
			return nil, fmt.Errorf("bad dtype %q", s)
		}
		return chiseltorch.NewFloat(a, b), nil
	}
	return nil, fmt.Errorf("unknown dtype %q (want sintW, fixedI.F or floatE.M)", s)
}

func parseBits(s string) ([]bool, error) {
	s = strings.NewReplacer(",", "", " ", "").Replace(s)
	bits := make([]bool, 0, len(s))
	for _, r := range s {
		switch r {
		case '0':
			bits = append(bits, false)
		case '1':
			bits = append(bits, true)
		default:
			return nil, fmt.Errorf("input bits must be 0 or 1, got %q", r)
		}
	}
	return bits, nil
}

func formatBits(bits []bool) string {
	var sb strings.Builder
	for _, b := range bits {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewEncoder(f).Encode(v)
}

// loadKeys reads the key pair `pytfhe keygen` wrote into dir and checks the
// cloud key's shape, so a truncated, mismatched or old-format key file is an
// error here and not a panic in the first bootstrap.
func loadKeys(dir string) (*core.KeyPair, error) {
	var sk boot.SecretKey
	if err := readGob(filepath.Join(dir, "secret.key"), &sk); err != nil {
		return nil, err
	}
	var ck boot.CloudKey
	path := filepath.Join(dir, "cloud.key")
	if err := readGob(path, &ck); err != nil {
		return nil, err
	}
	if err := ck.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &core.KeyPair{Secret: &sk, Cloud: &ck}, nil
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v)
}
