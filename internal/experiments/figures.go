package experiments

import (
	"io"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/gpu"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/sched"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/trand"
)

// --- Figure 7: single-core gate profile ---

// GateProfile is the Fig. 7 breakdown of one bootstrapped gate.
type GateProfile struct {
	BlindRotate  time.Duration
	Extract      time.Duration
	KeySwitch    time.Duration
	Total        time.Duration
	CommBytes    int
	CommTime     time.Duration
	CommFraction float64
}

// Fig07GateProfile measures a real bootstrapped gate (with the given
// parameter set; each phase's fastest of samples gates) and models the
// per-gate communication of the distributed backend: three ciphertexts
// (two in, one out) over the Table II 1 Gbit NIC.
func Fig07GateProfile(p *params.GateParams, samples int) (GateProfile, error) {
	rng := trand.NewSeeded([]byte("fig7"))
	sk, ck, err := boot.GenerateKeys(p, rng)
	if err != nil {
		return GateProfile{}, err
	}
	eng := gate.NewEngine(ck)
	eng.Eval.Profile = true
	a := gate.NewCiphertext(p)
	b := gate.NewCiphertext(p)
	out := gate.NewCiphertext(p)
	gate.Encrypt(a, true, sk, rng)
	gate.Encrypt(b, false, sk, rng)
	if samples < 1 {
		samples = 1
	}
	// Warm-up evaluation, then profile gate by gate and keep each phase's
	// fastest sample: the phases are deterministic work, so the minimum is
	// the measurement least disturbed by the host (a mean over a few gates
	// moves by whole phases when the OS preempts one of them).
	if err := eng.Binary(logic.NAND, out, a, b); err != nil {
		return GateProfile{}, err
	}
	g := GateProfile{CommBytes: 3 * p.CiphertextBytes()}
	for i := 0; i < samples; i++ {
		eng.Eval.Prof = boot.Profile{}
		if err := eng.Binary(logic.NAND, out, a, b); err != nil {
			return GateProfile{}, err
		}
		prof := eng.Eval.Prof
		if i == 0 || prof.BlindRotate < g.BlindRotate {
			g.BlindRotate = prof.BlindRotate
		}
		if i == 0 || prof.Extract < g.Extract {
			g.Extract = prof.Extract
		}
		if i == 0 || prof.KeySwitch < g.KeySwitch {
			g.KeySwitch = prof.KeySwitch
		}
	}
	g.Total = g.BlindRotate + g.Extract + g.KeySwitch
	// 1 Gbit/s NIC from Table II.
	g.CommTime = time.Duration(float64(g.CommBytes) / 125e6 * float64(time.Second))
	g.CommFraction = float64(g.CommTime) / float64(g.Total+g.CommTime)
	return g, nil
}

// Render writes the profile as text.
func (g GateProfile) Render(w io.Writer) {
	fprintf(w, "Fig. 7 — profile of one bootstrapped TFHE gate (single core)\n")
	fprintf(w, "  blind rotation : %12v (%5.1f%%)\n", g.BlindRotate, 100*float64(g.BlindRotate)/float64(g.Total))
	fprintf(w, "  sample extract : %12v (%5.1f%%)\n", g.Extract, 100*float64(g.Extract)/float64(g.Total))
	fprintf(w, "  key switching  : %12v (%5.1f%%)\n", g.KeySwitch, 100*float64(g.KeySwitch)/float64(g.Total))
	fprintf(w, "  total compute  : %12v\n", g.Total)
	fprintf(w, "  communication  : %12v for %d B (%.3f%% of gate; paper: 0.094%%)\n",
		g.CommTime, g.CommBytes, 100*g.CommFraction)
}

// --- Figures 8 & 9: GPU execution timelines ---

// GPUTimelines holds the simulated cuFHE and CUDA-graph executions of the
// same small gate chain.
type GPUTimelines struct {
	CuFHE gpu.Exec
	Graph gpu.Exec
}

// Fig0809GPUTimelines simulates the four-dependent-gate example of Figs. 8
// and 9 on the A5000 model.
func Fig0809GPUTimelines(c Config) GPUTimelines {
	nl := chainNetlist(4)
	a5000, _ := c.devices()
	return GPUTimelines{
		CuFHE: gpu.CuFHEDriver{Dev: a5000}.Simulate(nl),
		Graph: gpu.GraphDriver{Dev: a5000}.Simulate(nl),
	}
}

// chainNetlist builds a dependent chain of NAND gates.
func chainNetlist(depth int) *circuit.Netlist {
	b := circuit.NewBuilder("chain", circuit.NoOptimizations())
	x := b.Input("a")
	y := b.Input("b")
	cur := x
	for i := 0; i < depth; i++ {
		cur = b.Gate(logic.NAND, cur, y)
	}
	b.Output("o", cur)
	return b.MustBuild()
}

// Render writes both timelines.
func (t GPUTimelines) Render(w io.Writer) {
	fprintf(w, "Fig. 8 — cuFHE-style execution of 4 dependent gates\n")
	renderTimeline(w, t.CuFHE)
	fprintf(w, "Fig. 9 — PyTFHE CUDA-graph execution of the same gates\n")
	renderTimeline(w, t.Graph)
	fprintf(w, "  makespan: cuFHE %v vs graph %v (%.1fx)\n",
		t.CuFHE.Makespan, t.Graph.Makespan,
		float64(t.CuFHE.Makespan)/float64(t.Graph.Makespan))
}

func renderTimeline(w io.Writer, e gpu.Exec) {
	for _, s := range e.Timeline {
		fprintf(w, "  %-9s start=%-12v dur=%-12v gates=%d\n", s.Kind, s.Start, s.Dur, s.Gates)
	}
	fprintf(w, "  breakdown: copy=%v kernel=%v launch=%v construct=%v total=%v\n",
		e.Copy, e.Kernel, e.Launch, e.Construct, e.Makespan)
}

// --- Figure 10: distributed CPU scaling across VIP-Bench ---

// ScalingRow is one benchmark's row in Fig. 10.
type ScalingRow struct {
	Name          string
	Gates         int
	Bootstraps    int
	Serial        bool
	SingleCore    time.Duration
	OneNode       sched.Result
	FourNodes     sched.Result
	Speedup1Node  float64
	Speedup4Nodes float64
}

// Fig10DistributedCPU simulates every workload on the single-core, 1-node
// (18 worker) and 4-node (72 worker) platforms.
func Fig10DistributedCPU(c Config) ([]ScalingRow, error) {
	ws, err := c.VIPWorkloads()
	if err != nil {
		return nil, err
	}
	single, one, four := c.platforms()
	rows := make([]ScalingRow, 0, len(ws))
	for _, w := range ws {
		s := sched.Simulate(w.Netlist, single)
		r1 := sched.Simulate(w.Netlist, one)
		r4 := sched.Simulate(w.Netlist, four)
		rows = append(rows, ScalingRow{
			Name:          w.Name,
			Gates:         len(w.Netlist.Gates),
			Bootstraps:    r1.Bootstraps,
			Serial:        w.Serial,
			SingleCore:    s.Makespan,
			OneNode:       r1,
			FourNodes:     r4,
			Speedup1Node:  float64(s.Makespan) / float64(r1.Makespan),
			Speedup4Nodes: float64(s.Makespan) / float64(r4.Makespan),
		})
	}
	return rows, nil
}

// RenderFig10 writes the scaling table (sorted by gate count, like the
// paper's x axis).
func RenderFig10(w io.Writer, rows []ScalingRow) {
	fprintf(w, "Fig. 10 — distributed CPU vs single-threaded CPU (speedup; ideals: 18 and 72)\n")
	fprintf(w, "  %-22s %10s %8s %10s %10s\n", "benchmark", "gates", "serial", "1 node", "4 nodes")
	for _, r := range rows {
		mark := ""
		if r.Serial {
			mark = "*"
		}
		fprintf(w, "  %-22s %10d %8s %9.1fx %9.1fx\n", r.Name, r.Gates, mark, r.Speedup1Node, r.Speedup4Nodes)
	}
	fprintf(w, "  (* mostly-serial workloads; the paper reports up to 17.4x / 60.5x on the largest benchmarks)\n")
}

// --- Figure 11: GPU vs cuFHE across VIP-Bench ---

// GPURow is one benchmark's row in Fig. 11.
type GPURow struct {
	Name         string
	Gates        int
	CuFHE        time.Duration
	GraphA5000   time.Duration
	Graph4090    time.Duration
	SpeedupA5000 float64
	Speedup4090  float64
}

// Fig11GPU simulates every workload under the cuFHE driver and the PyTFHE
// graph driver on both boards.
func Fig11GPU(c Config) ([]GPURow, error) {
	ws, err := c.VIPWorkloads()
	if err != nil {
		return nil, err
	}
	a5000, rtx4090 := c.devices()
	rows := make([]GPURow, 0, len(ws))
	for _, w := range ws {
		cu := gpu.CuFHEDriver{Dev: a5000}.Simulate(w.Netlist)
		ga := gpu.GraphDriver{Dev: a5000}.Simulate(w.Netlist)
		g4 := gpu.GraphDriver{Dev: rtx4090}.Simulate(w.Netlist)
		rows = append(rows, GPURow{
			Name:         w.Name,
			Gates:        len(w.Netlist.Gates),
			CuFHE:        cu.Makespan,
			GraphA5000:   ga.Makespan,
			Graph4090:    g4.Makespan,
			SpeedupA5000: float64(cu.Makespan) / float64(ga.Makespan),
			Speedup4090:  float64(cu.Makespan) / float64(g4.Makespan),
		})
	}
	return rows, nil
}

// RenderFig11 writes the GPU comparison table.
func RenderFig11(w io.Writer, rows []GPURow) {
	fprintf(w, "Fig. 11 — PyTFHE GPU backend vs cuFHE (speedup over cuFHE on the A5000 model)\n")
	fprintf(w, "  %-22s %10s %12s %12s %12s\n", "benchmark", "gates", "cuFHE", "A5000", "4090")
	for _, r := range rows {
		fprintf(w, "  %-22s %10d %12v %10.1fx %10.1fx\n", r.Name, r.Gates, r.CuFHE.Round(time.Microsecond), r.SpeedupA5000, r.Speedup4090)
	}
	fprintf(w, "  (paper: up to 61.5x on the largest benchmarks; serial kernels see modest gains)\n")
}
