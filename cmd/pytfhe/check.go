package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/circuit"
	"pytfhe/internal/core"
	"pytfhe/internal/experiments"
	"pytfhe/internal/hdl"
	"pytfhe/internal/models"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/synth"
	"pytfhe/internal/tfhe/noise"
	"pytfhe/internal/vipbench"
)

// checkTarget is one netlist `pytfhe check` analyzes.
type checkTarget struct {
	name string
	nl   *circuit.Netlist
}

// cmdCheck is the static-analysis entry point: for each target netlist it
// runs the noise-budget dataflow analysis (internal/tfhe/noise) and the
// plan-soundness verifier (internal/plan), printing both reports and
// failing the command if any target is over budget or compiles to an
// unsound plan. Program binaries additionally pass the strict structural
// lint (asm.Lint) at load time.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	path := fs.String("prog", "", "PyTFHE binary path (or pass it as the argument)")
	bench := fs.Bool("bench", false, "also check the ripple-imbalanced bench netlist")
	examples := fs.Bool("examples", false, "also check every examples/* netlist")
	pname := fs.String("params", "default128", "parameter set the noise analysis assumes: test or default128")
	minSigmas := fs.Float64("min-sigmas", 0, "sigma margin every gate and output must keep (0: default 4)")
	fs.Parse(args)
	if *path == "" && fs.NArg() == 1 {
		*path = fs.Arg(0)
	}
	if *path == "" && !*bench && !*examples {
		return fmt.Errorf("usage: pytfhe check <prog.ptfhe> (or -bench / -examples)")
	}
	p, err := paramSet(*pname)
	if err != nil {
		return err
	}

	var targets []checkTarget
	if *path != "" {
		bin, err := os.ReadFile(*path)
		if err != nil {
			return err
		}
		prog, err := core.LoadStrict(bin)
		if err != nil {
			return err
		}
		targets = append(targets, checkTarget{filepath.Base(*path), prog.Netlist})
	}
	if *bench {
		targets = append(targets, checkTarget{"bench/ripple-imbalanced", experiments.ImbalancedNetlist()})
	}
	if *examples {
		ex, err := exampleNetlists()
		if err != nil {
			return err
		}
		targets = append(targets, ex...)
	}

	var failed []string
	for i, tg := range targets {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", tg.name)
		if err := checkNetlist(tg.nl, p, *minSigmas); err != nil {
			fmt.Printf("FAIL %s: %v\n", tg.name, err)
			failed = append(failed, tg.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("check failed for %s", strings.Join(failed, ", "))
	}
	return nil
}

// checkNetlist runs both analyses over one netlist and prints their
// reports; the returned error is the first analysis failure.
func checkNetlist(nl *circuit.Netlist, p *params.GateParams, minSigmas float64) error {
	rep, err := noise.AnalyzeNetlist(nl, p, minSigmas)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if err := rep.Err(); err != nil {
		return err
	}
	pl, err := plan.Compile(nl)
	if err != nil {
		return fmt.Errorf("plan compile: %w", err)
	}
	vrep, err := plan.Verify(nl, pl)
	if err != nil {
		return err
	}
	fmt.Println(vrep)
	return nil
}

// lutDemoNetlist rebuilds the examples/lut demo circuit: an 8-input parity
// chain plus a majority vote over three AND pairs — the cone-heavy shape
// lut-cluster collapses. Keep in sync with examples/lut/main.go.
func lutDemoNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("lut-demo", circuit.AllOptimizations())
	xs := b.Inputs("x", 8)
	par := xs[0]
	for _, x := range xs[1:] {
		par = b.Xor(par, x)
	}
	b.Output("parity", par)
	b.Output("majority", b.LUT(0xE8,
		b.And(xs[0], xs[1]),
		b.And(xs[2], xs[3]),
		b.And(xs[4], xs[5])))
	return b.MustBuild()
}

// exampleNetlists rebuilds the circuits of every example program that has
// one, at the reduced sizes the examples themselves use, so `pytfhe check
// -examples` certifies exactly what `go run ./examples/...` evaluates.
func exampleNetlists() ([]checkTarget, error) {
	var out []checkTarget

	m := hdl.New("quickstart")
	xa := m.InputBus("a", 8)
	xb := m.InputBus("b", 8)
	m.OutputBus("sum", m.AddExpand(xa, xb))
	m.Output("a_lt_b", m.LtU(xa, xb))
	out = append(out, checkTarget{"examples/quickstart", m.MustBuild()})

	w, err := vipbench.CompileMNIST(models.MNISTS().Scaled(5), chiseltorch.NewFixed(8, 8))
	if err != nil {
		return nil, fmt.Errorf("examples/mnist: %w", err)
	}
	out = append(out, checkTarget{"examples/mnist", w.Netlist})

	wa, err := vipbench.CompileAttention(models.AttentionS().Scaled(2, 2), chiseltorch.NewFixed(3, 3))
	if err != nil {
		return nil, fmt.Errorf("examples/attention: %w", err)
	}
	out = append(out, checkTarget{"examples/attention", wa.Netlist})

	// The examples/lut demo netlist, analyzed in its clustered form — the
	// multi-input LUT gates the demo actually executes.
	lres, err := synth.OptimizeLUT(lutDemoNetlist())
	if err != nil {
		return nil, fmt.Errorf("examples/lut: %w", err)
	}
	out = append(out, checkTarget{"examples/lut", lres.Netlist})

	rb, err := vipbench.ByName("roberts-cross")
	if err != nil {
		return nil, fmt.Errorf("examples/distributed: %w", err)
	}
	nl, err := rb.Build()
	if err != nil {
		return nil, fmt.Errorf("examples/distributed: %w", err)
	}
	out = append(out, checkTarget{"examples/distributed", nl})

	return out, nil
}
