package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/trand"
)

var quick = Config{Quick: true, GateTime: 10 * time.Millisecond}

func TestFig07BlindRotationDominates(t *testing.T) {
	g, err := Fig07GateProfile(params.Test(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if g.BlindRotate <= g.KeySwitch {
		t.Fatalf("blind rotation (%v) must dominate key switching (%v)", g.BlindRotate, g.KeySwitch)
	}
	if g.CommFraction > 0.05 {
		t.Fatalf("communication fraction %.4f too large", g.CommFraction)
	}
	var buf bytes.Buffer
	g.Render(&buf)
	if !strings.Contains(buf.String(), "blind rotation") {
		t.Fatal("render missing content")
	}
}

func TestFig0809GraphBeatsCuFHEOnChain(t *testing.T) {
	tl := Fig0809GPUTimelines(quick)
	if tl.Graph.Makespan >= tl.CuFHE.Makespan {
		t.Fatalf("graph (%v) should be at least as fast as cuFHE (%v)", tl.Graph.Makespan, tl.CuFHE.Makespan)
	}
	// Fig. 8 pattern: 4 gates, each with copies and a launch.
	if tl.CuFHE.Batches != 4 {
		t.Fatalf("cuFHE should need 4 serialized batches, got %d", tl.CuFHE.Batches)
	}
	var buf bytes.Buffer
	tl.Render(&buf)
	if !strings.Contains(buf.String(), "copy-in") {
		t.Fatal("timeline render missing segments")
	}
}

func TestFig10Shape(t *testing.T) {
	rows, err := Fig10DistributedCPU(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18+3+2 {
		t.Fatalf("Fig. 10 covers %d workloads, want 23 (18 VIP + 3 MNIST + 2 attention)", len(rows))
	}
	// Sorted ascending by gate count.
	for i := 1; i < len(rows); i++ {
		if rows[i].Gates < rows[i-1].Gates {
			t.Fatalf("rows not sorted by gate count at %d", i)
		}
	}
	byName := map[string]ScalingRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The largest benchmarks scale near-ideally on one node (paper: 17.4 of 18).
	big := rows[len(rows)-1]
	if big.Speedup1Node < 10 || big.Speedup1Node > 18 {
		t.Fatalf("largest workload %s 1-node speedup %.1f, want near 18", big.Name, big.Speedup1Node)
	}
	if big.Speedup4Nodes < 30 || big.Speedup4Nodes > 72 {
		t.Fatalf("largest workload %s 4-node speedup %.1f, want well above 1-node but below 72", big.Name, big.Speedup4Nodes)
	}
	// Serial workloads see far less benefit (paper: NR-Solver et al.).
	// nr-solver retains some intra-multiplier parallelism; parrondo's
	// bit-serial decision chain has essentially none.
	nr := byName["nr-solver"]
	if nr.Speedup4Nodes > 0.75*big.Speedup4Nodes {
		t.Fatalf("nr-solver 4-node speedup %.1f should trail the largest workload's %.1f",
			nr.Speedup4Nodes, big.Speedup4Nodes)
	}
	par := byName["parrondo"]
	if par.Speedup4Nodes > big.Speedup4Nodes/2 {
		t.Fatalf("parrondo 4-node speedup %.1f should be far below %.1f",
			par.Speedup4Nodes, big.Speedup4Nodes)
	}
	var buf bytes.Buffer
	RenderFig10(&buf, rows)
	if !strings.Contains(buf.String(), "MNIST_L") {
		t.Fatal("render missing MNIST_L")
	}
}

func TestFig11Shape(t *testing.T) {
	rows, err := Fig11GPU(quick)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]GPURow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	big := rows[len(rows)-1]
	if big.SpeedupA5000 < 8 {
		t.Fatalf("largest workload GPU speedup %.1f too low (paper: up to 61.5x)", big.SpeedupA5000)
	}
	if big.Speedup4090 <= big.SpeedupA5000 {
		t.Fatalf("4090 (%.1fx) should beat A5000 (%.1fx)", big.Speedup4090, big.SpeedupA5000)
	}
	// Serial benchmarks see modest gains (paper: Parrondo, Euler, NRSolver).
	for _, name := range []string{"parrondo", "nr-solver"} {
		if s := byName[name].SpeedupA5000; s > big.SpeedupA5000/2 {
			t.Fatalf("%s speedup %.1f should be modest vs %.1f", name, s, big.SpeedupA5000)
		}
	}
	var buf bytes.Buffer
	RenderFig11(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFig12Shape(t *testing.T) {
	rows, err := Fig12TranspilerCross(quick)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Config != "GT+GC (1 core)" || rows[0].Speedup != 1 {
		t.Fatalf("baseline row wrong: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.Speedup <= 1 {
			t.Fatalf("%s speedup %.2f should exceed the GT+GC baseline", r.Config, r.Speedup)
		}
	}
	// PyT+PyT beats GT+PyT on the same backend class (fewer gates).
	var gtCPU, pytCPU, gt4090, pyt4090 float64
	for _, r := range rows {
		switch r.Config {
		case "GT+PyT CPU (4 nodes)":
			gtCPU = r.Speedup
		case "PyT+PyT CPU (4 nodes)":
			pytCPU = r.Speedup
		case "GT+PyT GPU (4090)":
			gt4090 = r.Speedup
		case "PyT+PyT GPU (4090)":
			pyt4090 = r.Speedup
		}
	}
	if pytCPU <= gtCPU {
		t.Fatalf("ChiselTorch frontend should beat Transpiler frontend on CPU: %.1f vs %.1f", pytCPU, gtCPU)
	}
	if pyt4090 <= gt4090 {
		t.Fatalf("ChiselTorch frontend should beat Transpiler frontend on GPU: %.1f vs %.1f", pyt4090, gt4090)
	}
	var buf bytes.Buffer
	RenderFig12(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFig13Table4Shape(t *testing.T) {
	cmp, err := Fig13Table4Comparison(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Every PyTFHE configuration beats every baseline (Table IV is all > 1).
	for cfg, row := range cmp.Speedups {
		for base, s := range row {
			if s <= 1 {
				t.Fatalf("%s vs %s speedup %.2f, want > 1", cfg, base, s)
			}
		}
	}
	// Speedups grow monotonically along the platform ladder, per Table IV.
	ladder := []string{"PyTFHE Single Core", "PyTFHE 1 Node", "PyTFHE 4 Nodes", "PyTFHE A5000 GPU", "PyTFHE 4090 GPU"}
	for i := 1; i < len(ladder); i++ {
		if cmp.Speedups[ladder[i]]["transpiler"] <= cmp.Speedups[ladder[i-1]]["transpiler"] {
			t.Fatalf("speedup ladder not monotone between %s and %s", ladder[i-1], ladder[i])
		}
	}
	// Transpiler speedups dwarf E3/Cingulata speedups (28.4 vs 1.5/1.8).
	sc := cmp.Speedups["PyTFHE Single Core"]
	if sc["transpiler"] < 3*sc["e3"] {
		t.Fatalf("transpiler speedup %.1f should far exceed e3's %.1f", sc["transpiler"], sc["e3"])
	}
	var buf bytes.Buffer
	cmp.Render(&buf)
	if !strings.Contains(buf.String(), "Table IV") {
		t.Fatal("render missing Table IV")
	}
}

func TestFig14Shape(t *testing.T) {
	d, err := Fig14GateDistribution(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !(d.Counts["pytfhe"] < d.Counts["cingulata"] &&
		d.Counts["cingulata"] < d.Counts["e3"] &&
		d.Counts["e3"] < d.Counts["transpiler"]) {
		t.Fatalf("Fig. 14 ordering broken: %v", d.Counts)
	}
	if d.Ratio["pytfhe"] != 1 {
		t.Fatalf("self ratio %v", d.Ratio["pytfhe"])
	}
	var buf bytes.Buffer
	d.Render(&buf)
	if !strings.Contains(buf.String(), "transpiler") {
		t.Fatal("render missing frameworks")
	}
}

func TestExecutorScalingMeasured(t *testing.T) {
	rng := trand.NewSeeded([]byte("executor-scaling-test"))
	sk, ck, err := boot.GenerateKeys(params.Test(), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Four independent NAND chains: enough slack for 2 workers, deep
	// enough that the level barrier is visible.
	b := circuit.NewBuilder("scaling", circuit.NoOptimizations())
	ins := b.Inputs("x", 5)
	for c := 0; c < 4; c++ {
		cur := ins[c]
		for d := 0; d < 5; d++ {
			cur = b.Gate(logic.NAND, cur, ins[4])
		}
		b.Output("o", cur)
	}
	nl := b.MustBuild()
	inputs := backend.EncryptInputs(sk, make([]bool, nl.NumInputs))

	rows, err := ExecutorScaling(ck, nl, inputs, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Pool.Elapsed <= 0 || r.Async.Elapsed <= 0 || r.Predicted <= 0 {
			t.Fatalf("row not measured: %+v", r)
		}
		if r.Async.Utilization <= 0 {
			t.Fatalf("async utilization not recorded: %+v", r.Async)
		}
	}
	var buf bytes.Buffer
	RenderExecutorScaling(&buf, nl.Name, rows)
	if !strings.Contains(buf.String(), "async/pool") {
		t.Fatal("render missing comparison column")
	}
}

func TestRenderTables(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf)
	RenderPlatforms(&buf, quick)
	out := buf.String()
	for _, want := range []string{"Conv2d", "argmax", "Table II", "Table III", "rtx-4090"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables render missing %q", want)
		}
	}
}
