// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus ablations of the design
// choices called out in DESIGN.md §5. Custom metrics report the quantities
// the paper plots (gate counts, speedups) alongside wall-clock time.
package pytfhe_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/circuit"
	"pytfhe/internal/core"
	"pytfhe/internal/experiments"
	"pytfhe/internal/frameworks"
	"pytfhe/internal/gpu"
	"pytfhe/internal/hdl"
	"pytfhe/internal/logic"
	"pytfhe/internal/models"
	"pytfhe/internal/params"
	"pytfhe/internal/sched"
	"pytfhe/internal/synth"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/trand"
	"pytfhe/internal/vipbench"
)

// benchCfg is the configuration every figure benchmark uses: scaled
// workloads and a fixed nominal gate time so results are stable across
// machines.
var benchCfg = experiments.Config{Quick: true, GateTime: 15 * time.Millisecond}

// Keys at test parameters, generated once.
var (
	keyOnce sync.Once
	keyPair *core.KeyPair
)

func testKeys(b *testing.B) *core.KeyPair {
	keyOnce.Do(func() {
		kp, err := core.GenerateKeysSeeded(params.Test(), []byte("bench-keys"))
		if err != nil {
			panic(err)
		}
		keyPair = kp
	})
	return keyPair
}

// --- crypto microbenchmarks (the calibration quantities) ---

// BenchmarkGateBootstrapTestParams times one bootstrapped NAND at the fast
// test parameter set.
func BenchmarkGateBootstrapTestParams(b *testing.B) {
	kp := testKeys(b)
	benchGate(b, kp)
}

// BenchmarkGateBootstrapDefault128 times one bootstrapped NAND at the
// production 128-bit parameters — the calibration point for every
// simulated platform (Fig. 7's total).
func BenchmarkGateBootstrapDefault128(b *testing.B) {
	kp, err := core.GenerateKeysSeeded(params.Default128(), []byte("bench-full"))
	if err != nil {
		b.Fatal(err)
	}
	benchGate(b, kp)
}

func benchGate(b *testing.B, kp *core.KeyPair) {
	eng := gate.NewEngine(kp.Cloud)
	rng := trand.NewSeeded([]byte("bench"))
	x := gate.NewCiphertext(kp.Cloud.Params)
	y := gate.NewCiphertext(kp.Cloud.Params)
	out := gate.NewCiphertext(kp.Cloud.Params)
	gate.Encrypt(x, true, kp.Secret, rng)
	gate.Encrypt(y, false, kp.Secret, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Binary(logic.NAND, out, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchBootstrap measures what batching buys on the one bootstrap
// engine: each iteration evaluates 64 independent NAND gates, one Binary
// call at a time ("single") and in BinaryBatch chunks of 1, 4, 16 and 64.
// Single and batch-1 run the same pipeline and coincide; larger batches
// gain only the key-streaming amortisation (each bootstrapping-key entry
// loaded once per batch). The figure of merit is boots/s.
func BenchmarkBatchBootstrap(b *testing.B) {
	kp := testKeys(b)
	rng := trand.NewSeeded([]byte("bench-batch"))
	const lanes = 64
	kinds := make([]logic.Kind, lanes)
	xs := make([]*gate.Ciphertext, lanes)
	ys := make([]*gate.Ciphertext, lanes)
	outs := make([]*gate.Ciphertext, lanes)
	for m := 0; m < lanes; m++ {
		kinds[m] = logic.NAND
		xs[m] = gate.NewCiphertext(kp.Cloud.Params)
		ys[m] = gate.NewCiphertext(kp.Cloud.Params)
		outs[m] = gate.NewCiphertext(kp.Cloud.Params)
		gate.Encrypt(xs[m], m%2 == 0, kp.Secret, rng)
		gate.Encrypt(ys[m], m%3 == 0, kp.Secret, rng)
	}
	b.Run("single", func(b *testing.B) {
		eng := gate.NewEngine(kp.Cloud)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for m := 0; m < lanes; m++ {
				if err := eng.Binary(kinds[m], outs[m], xs[m], ys[m]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*lanes)/b.Elapsed().Seconds(), "boots/s")
	})
	for _, size := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			eng := gate.NewEngine(kp.Cloud)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < lanes; lo += size {
					if err := eng.BinaryBatch(kinds[lo:lo+size], outs[lo:lo+size], xs[lo:lo+size], ys[lo:lo+size]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N*lanes)/b.Elapsed().Seconds(), "boots/s")
		})
	}
}

// BenchmarkKeyGenerationTestParams times full key generation (bootstrapping
// key in the half-complex domain plus the key-switching key).
func BenchmarkKeyGenerationTestParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.GenerateKeysSeeded(params.Test(), []byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- figure/table benchmarks ---

// BenchmarkFig07GateProfile regenerates the Fig. 7 per-gate breakdown.
func BenchmarkFig07GateProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := experiments.Fig07GateProfile(params.Test(), 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.BlindRotate)/float64(g.Total)*100, "blindrotate-%")
		b.ReportMetric(g.CommFraction*100, "comm-%")
	}
}

// BenchmarkFig08CuFHEBreakdown regenerates the cuFHE timeline of Fig. 8.
func BenchmarkFig08CuFHEBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl := experiments.Fig0809GPUTimelines(benchCfg)
		b.ReportMetric(tl.CuFHE.Makespan.Seconds()*1e3, "cufhe-ms")
	}
}

// BenchmarkFig09GraphBreakdown regenerates the CUDA-graph timeline of
// Fig. 9.
func BenchmarkFig09GraphBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl := experiments.Fig0809GPUTimelines(benchCfg)
		b.ReportMetric(tl.Graph.Makespan.Seconds()*1e3, "graph-ms")
	}
}

// BenchmarkFig10DistributedCPU regenerates the distributed-CPU scaling
// figure; the reported metric is the best 4-node speedup.
func BenchmarkFig10DistributedCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10DistributedCPU(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		best := rows[len(rows)-1]
		b.ReportMetric(best.Speedup1Node, "speedup-1node")
		b.ReportMetric(best.Speedup4Nodes, "speedup-4nodes")
	}
}

// BenchmarkFig11GPUvsCuFHE regenerates the GPU-vs-cuFHE figure; the metric
// is the best A5000 speedup (paper: up to 61.5×).
func BenchmarkFig11GPUvsCuFHE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11GPU(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		best := rows[len(rows)-1]
		b.ReportMetric(best.SpeedupA5000, "speedup-a5000")
		b.ReportMetric(best.Speedup4090, "speedup-4090")
	}
}

// BenchmarkFig12TranspilerCross regenerates the frontend/backend cross of
// Fig. 12; the metric is the GT+PyT CPU speedup (paper: 52×).
func BenchmarkFig12TranspilerCross(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12TranspilerCross(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Config == "GT+PyT CPU (4 nodes)" {
				b.ReportMetric(r.Speedup, "gtpyt-cpu-speedup")
			}
		}
	}
}

// BenchmarkFig13FrameworkRuntime regenerates the Fig. 13 runtimes.
func BenchmarkFig13FrameworkRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.Fig13Table4Comparison(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.Speedups["PyTFHE Single Core"]["transpiler"], "vs-transpiler")
	}
}

// BenchmarkTable4Speedups regenerates the Table IV matrix; the metric is
// the 4090 speedup over the Transpiler (paper: 4070×).
func BenchmarkTable4Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.Fig13Table4Comparison(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.Speedups["PyTFHE 4090 GPU"]["transpiler"], "4090-vs-transpiler")
	}
}

// BenchmarkFig14GateDistribution regenerates the gate census; metrics are
// the PyTFHE/Cingulata and PyTFHE/E3 ratios (paper: 0.653 and 0.536).
func BenchmarkFig14GateDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Fig14GateDistribution(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.Counts["pytfhe"])/float64(d.Counts["cingulata"]), "vs-cingulata")
		b.ReportMetric(float64(d.Counts["pytfhe"])/float64(d.Counts["e3"]), "vs-e3")
	}
}

// --- end-to-end execution benchmarks ---

// BenchmarkPoolBackend measures real homomorphic throughput of the
// wavefront pool backend on a VIP-Bench kernel at test parameters.
func BenchmarkPoolBackend(b *testing.B) {
	kp := testKeys(b)
	bench, err := vipbench.ByName("hamming-distance")
	if err != nil {
		b.Fatal(err)
	}
	nl, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]uint64, len(bench.InputBits))
	bits, _ := bench.EncodeInputs(vals)
	be := backend.NewPool(kp.Cloud, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := be.Run(nl, kp.EncryptBits(bits)); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(be.Stats.GatesPerSec, "gates/s")
		b.ReportMetric(be.Stats.BootstrapsPerSec, "boots/s")
	}
}

// rippleImbalanced builds a deep, irregular netlist of ripple-carry-style
// serial chains with unequal depths. Most wavefronts hold five ready gates
// — one more than the four benchmark workers — so the barriered executor
// pays a nearly-empty second round per level (three workers idle on the
// remainder gate), while the dependency-driven executor streams the next
// level's ready gates into that slack.
func rippleImbalanced() *circuit.Netlist {
	b := circuit.NewBuilder("ripple-imbalanced", circuit.NoOptimizations())
	depths := []int{30, 30, 30, 30, 30, 12, 6}
	ins := b.Inputs("x", len(depths)+1)
	for c, depth := range depths {
		cur := ins[c]
		for d := 0; d < depth; d++ {
			cur = b.Gate(logic.NAND, cur, ins[len(depths)])
		}
		b.Output("o", cur)
	}
	return b.MustBuild()
}

// BenchmarkAsyncBackend compares the barriered Pool and the barrier-free
// Async executor at equal worker counts on the imbalanced ripple workload
// (real homomorphic evaluation at test parameters). The async executor
// must report strictly higher throughput at ≥4 workers.
func BenchmarkAsyncBackend(b *testing.B) {
	kp := testKeys(b)
	nl := rippleImbalanced()
	bits := make([]bool, nl.NumInputs)
	const workers = 4
	b.Run("pool-4w", func(b *testing.B) {
		be := backend.NewPool(kp.Cloud, workers)
		for i := 0; i < b.N; i++ {
			if _, err := be.Run(nl, kp.EncryptBits(bits)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(be.Stats.GatesPerSec, "gates/s")
			b.ReportMetric(be.Stats.BootstrapsPerSec, "boots/s")
		}
	})
	b.Run("async-4w", func(b *testing.B) {
		be := backend.NewAsync(kp.Cloud, workers, 1)
		for i := 0; i < b.N; i++ {
			if _, err := be.Run(nl, kp.EncryptBits(bits)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(be.Stats.GatesPerSec, "gates/s")
			b.ReportMetric(be.Stats.BootstrapsPerSec, "boots/s")
			b.ReportMetric(100*be.Stats.Utilization, "util-%")
			b.ReportMetric(float64(be.Stats.AvgQueueWait.Microseconds()), "qwait-µs")
		}
	})
}

// BenchmarkPlannedReplay compares the capture/replay backend against the
// dynamic executor on the imbalanced ripple workload: plan replay (on the
// same slice scheduler pytfhed serves from) vs the barrier-free Async
// executor, both at four workers. Boots/s is logical bootstraps per second — the program's
// effective throughput. The plan backend must report ≥1.2× Async: capture
// pays the scheduling and the exact functional deduplication once, so
// replay executes only the netlist's distinct boolean functions (the
// periodic NAND chains collapse from 168 logical bootstraps to 14).
func BenchmarkPlannedReplay(b *testing.B) {
	kp := testKeys(b)
	nl := rippleImbalanced()
	bits := make([]bool, nl.NumInputs)
	const workers = 4
	b.Run("async-4w", func(b *testing.B) {
		be := backend.NewAsync(kp.Cloud, workers, 1)
		for i := 0; i < b.N; i++ {
			if _, err := be.Run(nl, kp.EncryptBits(bits)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(be.Stats.BootstrapsPerSec, "boots/s")
		}
	})
	b.Run("plan-4w", func(b *testing.B) {
		be := backend.NewPlanned(kp.Cloud, workers, 1)
		defer be.Close()
		// Warm-up run pays the capture; the timed runs replay the cache.
		if _, err := be.Run(nl, kp.EncryptBits(bits)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := be.Run(nl, kp.EncryptBits(bits)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(be.Stats.BootstrapsPerSec, "boots/s")
			b.ReportMetric(float64(be.PlanStats.ExecBootstraps), "exec-bootstraps")
		}
	})
}

// BenchmarkCompileMNISTS measures ChiselTorch compile time for the scaled
// MNIST_S model.
func BenchmarkCompileMNISTS(b *testing.B) {
	spec := models.MNISTS().Scaled(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := vipbench.CompileMNIST(spec, chiseltorch.NewFixed(8, 8))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(w.Netlist.Gates)), "gates")
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationOptimizerOff measures the gate-count cost of disabling
// the synthesis pipeline on MNIST_S: the metric is unoptimized/optimized.
func BenchmarkAblationOptimizerOff(b *testing.B) {
	spec := models.MNISTS().Scaled(10)
	for i := 0; i < b.N; i++ {
		// The DSL path lets us build the same model with and without the
		// builder optimizations.
		opt, err := frameworks.PyTFHEDSL().CompileMNIST(spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err := synth.Optimize(opt)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := frameworks.E3().CompileMNIST(spec) // template lowering, no optimization
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(raw.Gates))/float64(len(res.Netlist.Gates)), "unopt/opt")
	}
}

// BenchmarkAblationDataTypes sweeps the paper's quantization trade-off:
// MNIST_S gate counts at Fixed(4,4), Fixed(8,8) and Float(8,8). (SInt is
// omitted: integer models need integer weights, and the shared spec's
// weights are fractional.)
func BenchmarkAblationDataTypes(b *testing.B) {
	spec := models.MNISTS().Scaled(8)
	dts := []chiseltorch.DType{chiseltorch.NewFixed(4, 4), chiseltorch.NewFixed(8, 8), chiseltorch.NewFloat(8, 8)}
	names := []string{"fixed44", "fixed88", "float88"}
	for i := 0; i < b.N; i++ {
		for j, dt := range dts {
			w, err := vipbench.CompileMNIST(spec, dt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(w.Netlist.Gates)), names[j]+"-gates")
		}
	}
}

// BenchmarkAblationGPUBatchSize sweeps the CUDA-graph batch size; tiny
// batches degenerate toward cuFHE-style behaviour.
func BenchmarkAblationGPUBatchSize(b *testing.B) {
	nl := buildWide(256, 8)
	dev := gpu.A5000()
	for i := 0; i < b.N; i++ {
		small := gpu.GraphDriver{Dev: dev, BatchGates: 8}.Simulate(nl)
		big := gpu.GraphDriver{Dev: dev, BatchGates: 100000}.Simulate(nl)
		b.ReportMetric(float64(small.Makespan)/float64(big.Makespan), "small/large-batch")
	}
}

// BenchmarkAblationCuFHEBatchCap sweeps cuFHE's batching assumption: even
// granting it SM-wide batches, the graph driver stays ahead on real DAGs.
func BenchmarkAblationCuFHEBatchCap(b *testing.B) {
	nl := buildWide(256, 8)
	dev := gpu.A5000()
	for i := 0; i < b.N; i++ {
		perGate := gpu.CuFHEDriver{Dev: dev, BatchCap: 1}.Simulate(nl)
		batched := gpu.CuFHEDriver{Dev: dev, BatchCap: dev.SMs}.Simulate(nl)
		graph := gpu.GraphDriver{Dev: dev}.Simulate(nl)
		b.ReportMetric(float64(perGate.Makespan)/float64(graph.Makespan), "pergate/graph")
		b.ReportMetric(float64(batched.Makespan)/float64(graph.Makespan), "batched/graph")
	}
}

// BenchmarkAblationDispatchGranularity compares per-gate dispatch cost
// against batched-per-level dispatch in the wavefront scheduler model.
func BenchmarkAblationDispatchGranularity(b *testing.B) {
	nl := buildWide(360, 10)
	gt := 15 * time.Millisecond
	perGate := sched.XeonNode(1, gt)
	perLevel := perGate
	perLevel.Cost.DispatchOverhead = 0
	perLevel.Cost.LevelSync = gt / 10
	for i := 0; i < b.N; i++ {
		a := sched.Simulate(nl, perGate)
		c := sched.Simulate(nl, perLevel)
		b.ReportMetric(float64(a.Makespan)/float64(c.Makespan), "pergate/perlevel")
	}
}

func buildWide(width, depth int) *circuit.Netlist {
	bld := circuit.NewBuilder("wide", circuit.NoOptimizations())
	ins := bld.Inputs("x", width+1)
	for w := 0; w < width; w++ {
		cur := ins[w]
		for d := 0; d < depth; d++ {
			cur = bld.Gate(logic.NAND, cur, ins[w+1])
		}
		bld.Output("o", cur)
	}
	return bld.MustBuild()
}

// BenchmarkAblationResynthesis measures how much of the Transpiler IR's
// AND/OR/NOT expansion the cut-size-2 resynthesis pass recovers when
// executing HLS-generated netlists on the rich TFHE gate set.
func BenchmarkAblationResynthesis(b *testing.B) {
	spec := models.MNISTS().Scaled(8)
	gt, err := frameworks.Transpiler().CompileMNIST(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := synth.Resynthesize(gt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(gt.Gates))/float64(len(out.Gates)), "shrink-factor")
	}
}

// BenchmarkAblationAdderDepth compares ripple vs Kogge-Stone adders on the
// wavefront backend model: depth is wall-clock in PyTFHE's schedulers, so
// the prefix adder's extra gates buy latency on parallel platforms.
func BenchmarkAblationAdderDepth(b *testing.B) {
	build := func(cla bool) *circuit.Netlist {
		m := hdl.New("adders")
		a := m.InputBus("a", 32)
		bb := m.InputBus("b", 32)
		if cla {
			m.OutputBus("s", m.AddCLA(a, bb))
		} else {
			m.OutputBus("s", m.Add(a, bb))
		}
		return m.MustBuild()
	}
	ripple := build(false)
	cla := build(true)
	p := sched.XeonNode(1, 15*time.Millisecond)
	for i := 0; i < b.N; i++ {
		r := sched.Simulate(ripple, p)
		c := sched.Simulate(cla, p)
		b.ReportMetric(float64(r.Makespan)/float64(c.Makespan), "ripple/cla-latency")
		b.ReportMetric(float64(len(cla.Gates))/float64(len(ripple.Gates)), "cla/ripple-gates")
	}
}

// BenchmarkAblationLevelBarrier compares the level-synchronous wavefront
// schedule of Algorithm 1 against barrier-free event-driven dispatch.
func BenchmarkAblationLevelBarrier(b *testing.B) {
	ws, err := benchCfg.VIPWorkloads()
	if err != nil {
		b.Fatal(err)
	}
	// Use an imbalanced mid-size workload where barriers actually cost.
	var nl *circuit.Netlist
	for _, w := range ws {
		if w.Name == "edit-distance" {
			nl = w.Netlist
		}
	}
	p := sched.XeonNode(1, 15*time.Millisecond)
	for i := 0; i < b.N; i++ {
		syncRes := sched.Simulate(nl, p)
		asyncRes := sched.SimulateAsync(nl, p)
		b.ReportMetric(float64(syncRes.Makespan)/float64(asyncRes.Makespan), "barrier/async")
	}
}
