package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// resultSet is what -spread saves and -compare reads: the result line of
// every run, untraced (end-to-end metrics) and one traced run per workload
// (per-layer metrics).
type resultSet struct {
	RunSeconds float64     `json:"run_seconds"`
	Runs       []resultRun `json:"runs"`
}

type resultRun struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    bool                   `json:"trace"`
	Correct  bool                   `json:"correct"`
	Failed   int                    `json:"failed"`
	Metrics  map[string]metricValue `json:"metrics"`
}

// values returns the untraced samples of one metric on one workload.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// spreadMain runs every workload n times on consecutive seeds plus one traced
// run, saves the set, and prints each end-to-end metric's spread against its
// bound: the check BENCHMARK.json has to pass before it is trusted.
func spreadMain(spec *benchSpec, cfg *config, n int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	set := resultSet{RunSeconds: cfg.window.Seconds()}
	status := 0
	runOne := func(workload string, seed int64, trace int) {
		args := []string{"-root", cfg.root, "-workload", workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(cfg.window.Seconds()), "-trace", fmt.Sprint(trace)}
		if cfg.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		t0 := time.Now()
		runErr := cmd.Run()
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		run := resultRun{Workload: workload, Seed: seed, Trace: trace != 0}
		if err := json.Unmarshal(lines[len(lines)-1], &run); err != nil || runErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %v %v\n", workload, seed, trace, runErr, err)
			status = 1
			return
		}
		fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d done in %.1fs\n", workload, seed, trace, time.Since(t0).Seconds())
		set.Runs = append(set.Runs, run)
	}
	for _, w := range spec.Workloads {
		for i := 0; i < n; i++ {
			runOne(w.Name, cfg.seed+int64(i), 0)
		}
		runOne(w.Name, cfg.seed, 1)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("set-%s.json", time.Now().Format("20060102-150405")))
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}

	fmt.Printf("%-22s %-18s %3s %13s %13s %13s %8s %6s  %s\n", "metric", "workload", "n", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			vals := set.values(w.Name, m.Name)
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			sp := spread(vals)
			verdict := "steady"
			switch {
			case sp > *m.Bound && m.Name != "setup_s":
				verdict, status = "TOO WIDE", 1
			case sp > *m.Bound/3:
				verdict = "within bound, above a third of it"
			}
			fmt.Printf("%-22s %-18s %3d %13.6g %13.6g %13.6g %8.4f %6.2f  %s\n", m.Name, w.Name, len(vals), median(vals), q1, q3, sp, *m.Bound, verdict)
		}
	}
	for _, w := range spec.Workloads {
		untraced := median(set.values(w.Name, "op_s_p50"))
		for _, r := range set.Runs {
			if r.Workload == w.Name && r.Trace && untraced > 0 {
				fmt.Printf("trace.overhead_share   %-18s %8.4f  (traced op_s_p50 %.6g vs untraced median %.6g)\n",
					w.Name, r.Metrics["trace.op_s_p50"].Value/untraced-1, r.Metrics["trace.op_s_p50"].Value, untraced)
			}
		}
	}
	fmt.Println("saved", path)
	return status
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict applies the regression rule to one metric on one workload: b may be
// worse than a by at most bound (a share of a's median); when either side's
// own spread is wider than the bound the pair cannot be told apart.
func verdict(m metricSpec, a, b []float64) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	ratio = mb / ma
	worse := ratio - 1
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case m.Name != "setup_s" && (spread(a) > *m.Bound || spread(b) > *m.Bound):
		return ratio, "unresolved"
	case worse > *m.Bound:
		return ratio, "regressed"
	}
	return ratio, "ok"
}

// compareSets prints one row per end-to-end metric and workload.
func compareSets(spec *benchSpec, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		fatal(err)
	}
	status := 0
	fmt.Printf("%-22s %-18s %13s %13s %18s  %s\n", "metric", "workload", "median a", "median b", "b/a (base a)", "verdict")
	for _, m := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, v := verdict(m, va, vb)
			if v != "ok" {
				status = 1
			}
			fmt.Printf("%-22s %-18s %13.6g %13.6g %18.4f  %s\n", m.Name, w.Name, median(va), median(vb), ratio, v)
		}
	}
	return status
}
