// Command experiments regenerates the paper's tables and figures as text
// reports.
//
//	experiments -all                 # everything, full-size workloads
//	experiments -quick -all          # scaled workloads, finishes in seconds
//	experiments -fig 10              # one figure
//	experiments -table 4
//	experiments -calibrate           # measure the real gate time first
//	experiments -executors           # measured pool CPU scaling over one worker
//
// Without -calibrate, the cost models use -gatetime (default 100ms, the
// magnitude of this repository's pure-Go bootstrap at 128-bit parameters).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pytfhe/internal/core"
	"pytfhe/internal/experiments"
	"pytfhe/internal/params"
	"pytfhe/internal/vipbench"
)

func main() {
	quick := flag.Bool("quick", false, "scale workloads down (small MNIST images)")
	all := flag.Bool("all", false, "run every figure and table")
	fig := flag.String("fig", "", "comma-separated figure numbers: 7,8,9,10,11,12,13,14")
	table := flag.String("table", "", "comma-separated table numbers: 1,2,4")
	calibrate := flag.Bool("calibrate", false, "measure the bootstrapped-gate time with real keys first")
	gatetime := flag.Duration("gatetime", 0, "assumed single-core gate time (overrides -calibrate)")
	testParams := flag.Bool("testparams", false, "use the fast test parameter set for measured experiments")
	executors := flag.Bool("executors", false, "measure the pool's real CPU scaling over one worker (Fig. 10 on the in-process executors)")
	execBench := flag.String("execbench", "hamming-distance", "VIP-Bench kernel for -executors")
	execWorkers := flag.String("execworkers", "1,2,4,8", "comma-separated worker counts for -executors")
	flag.Parse()

	cfg := experiments.Config{Quick: *quick, GateTime: *gatetime}
	if *calibrate && *gatetime == 0 {
		p := params.Default128()
		if *testParams {
			p = params.Test()
		}
		fmt.Fprintf(os.Stderr, "calibrating with %s parameters...\n", p.Name)
		kp, err := core.GenerateKeysSeeded(p, []byte("experiments-calibration"))
		fatal(err)
		gt, err := core.CalibrateGateTime(kp, 3)
		fatal(err)
		fmt.Fprintf(os.Stderr, "measured gate time: %v\n", gt)
		cfg.GateTime = gt
	}

	figs := map[string]bool{}
	tables := map[string]bool{}
	if *all {
		for _, f := range []string{"7", "8", "9", "10", "11", "12", "13", "14"} {
			figs[f] = true
		}
		for _, t := range []string{"1", "2", "4"} {
			tables[t] = true
		}
	}
	for _, f := range strings.Split(*fig, ",") {
		if f = strings.TrimSpace(f); f != "" {
			figs[f] = true
		}
	}
	for _, t := range strings.Split(*table, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tables[t] = true
		}
	}
	if len(figs) == 0 && len(tables) == 0 && !*executors {
		flag.Usage()
		os.Exit(2)
	}

	w := os.Stdout
	start := time.Now()
	gt := cfg.GateTime
	if gt == 0 {
		gt = experiments.DefaultGateTime
	}
	fmt.Fprintf(w, "PyTFHE experiment harness (quick=%v, gate time=%v)\n\n", *quick, gt)

	if tables["1"] {
		experiments.RenderTable1(w)
		fmt.Fprintln(w)
	}
	if tables["2"] {
		experiments.RenderPlatforms(w, cfg)
		fmt.Fprintln(w)
	}
	if figs["7"] {
		p := params.Default128()
		if *testParams || *quick {
			p = params.Test()
		}
		prof, err := experiments.Fig07GateProfile(p, 3)
		fatal(err)
		prof.Render(w)
		fmt.Fprintln(w)
	}
	if figs["8"] || figs["9"] {
		experiments.Fig0809GPUTimelines(cfg).Render(w)
		fmt.Fprintln(w)
	}
	if figs["10"] {
		rows, err := experiments.Fig10DistributedCPU(cfg)
		fatal(err)
		experiments.RenderFig10(w, rows)
		fmt.Fprintln(w)
	}
	if figs["11"] {
		rows, err := experiments.Fig11GPU(cfg)
		fatal(err)
		experiments.RenderFig11(w, rows)
		fmt.Fprintln(w)
	}
	if figs["12"] {
		rows, err := experiments.Fig12TranspilerCross(cfg)
		fatal(err)
		experiments.RenderFig12(w, rows)
		fmt.Fprintln(w)
	}
	if figs["13"] || tables["4"] {
		cmp, err := experiments.Fig13Table4Comparison(cfg)
		fatal(err)
		cmp.Render(w)
		fmt.Fprintln(w)
	}
	if figs["14"] {
		d, err := experiments.Fig14GateDistribution(cfg)
		fatal(err)
		d.Render(w)
		fmt.Fprintln(w)
	}
	if *executors {
		p := params.Default128()
		if *testParams || *quick {
			p = params.Test()
		}
		fmt.Fprintf(os.Stderr, "generating %s keys for the measured executor run...\n", p.Name)
		kp, err := core.GenerateKeysSeeded(p, []byte("experiments-executors"))
		fatal(err)
		b, err := vipbench.ByName(*execBench)
		fatal(err)
		nl, err := b.Build()
		fatal(err)
		var counts []int
		for _, s := range strings.Split(*execWorkers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			fatal(err)
			counts = append(counts, n)
		}
		inputs := kp.EncryptBits(make([]bool, nl.NumInputs))
		rows, err := experiments.ExecutorScaling(kp.Cloud, nl, inputs, counts)
		fatal(err)
		experiments.RenderExecutorScaling(w, b.Name, rows)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
