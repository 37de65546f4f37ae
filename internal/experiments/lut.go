package experiments

import (
	"fmt"
	"io"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/synth"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
)

// LUTBenchNetlist builds the cone-heavy voting workload the multi-bit LUT
// sweep measures: six independent 9-input blocks, each three
// not-all-equal detectors NAE(a,b,c) = (a⊕b)∨(b⊕c) — three gates whose
// composed table 0x7E has a single-bootstrap plan, so each cone collapses
// to one LUT — combined by a two-XOR parity chain whose second XOR
// absorbs the first into a PARITY3 LUT. 11 bootstrapped gates per block
// classic, 4 programmable bootstraps clustered: the ≥2× bootstraps-per-
// gate drop the acceptance criterion demands, with margin. Builder
// optimizations are off so the logical gate count is exactly 11 per
// block; the blocks use disjoint inputs so neither CSE nor plan-level
// functional deduplication can shrink the LUT-off baseline.
func LUTBenchNetlist() *circuit.Netlist {
	b := circuit.NewBuilder("lut-cones", circuit.NoOptimizations())
	const blocks = 6
	ins := b.Inputs("x", blocks*9)
	for c := 0; c < blocks; c++ {
		xs := ins[c*9 : (c+1)*9]
		nae := func(x, y, z circuit.NodeID) circuit.NodeID {
			return b.Or(b.Xor(x, y), b.Xor(y, z))
		}
		out := b.Xor(
			b.Xor(nae(xs[0], xs[1], xs[2]), nae(xs[3], xs[4], xs[5])),
			nae(xs[6], xs[7], xs[8]))
		b.Output("o", out)
	}
	return b.MustBuild()
}

// LUTSweepReport is the Fig. 14-style netlist-size comparison with LUT
// synthesis on and off: the same source netlist through the classic
// pipeline and through lut-cluster, each replayed on the plan backend.
// Serialized under "lut_sweep" in BENCH_PLAN.json; CheckPlanParity holds
// the on-path throughput to the ±10% guard and requires the bootstrap
// reduction to stay ≥ 2×.
type LUTSweepReport struct {
	Netlist             string  `json:"netlist"`
	Workers             int     `json:"workers"`
	LogicalGates        int     `json:"logical_gates"` // classic pipeline gate count
	OffBootstraps       int     `json:"off_exec_bootstraps"`
	OnGates             int     `json:"on_logical_gates"` // after lut-cluster
	OnLUTs              int     `json:"on_luts"`
	OnBootstraps        int     `json:"on_exec_bootstraps"`
	OffBootstrapsPerSec float64 `json:"off_bootstraps_per_sec"`
	OnBootstrapsPerSec  float64 `json:"on_bootstraps_per_sec"`
	// BootstrapReduction is OffBootstraps / OnBootstraps — both paths
	// compute the same source netlist, so this is exactly the drop in
	// bootstraps executed per logical gate.
	BootstrapReduction float64 `json:"bootstrap_reduction"`
}

// LUTSweepBench measures the LUT on/off pair on LUTBenchNetlist. encrypt
// turns a plaintext bit vector into backend inputs (kp.EncryptBits); both
// paths replay their cached plan after an untimed capture. Bit-exactness
// of the two paths is the agreement matrix's job (cmd/pytfhe); here only
// the output arities are cross-checked.
func LUTSweepBench(ck *boot.CloudKey, encrypt func([]bool) []*lwe.Sample, workers int) (*LUTSweepReport, error) {
	src := LUTBenchNetlist()
	off, err := synth.Optimize(src)
	if err != nil {
		return nil, fmt.Errorf("experiments: lut sweep classic synth: %w", err)
	}
	on, err := synth.OptimizeLUT(src)
	if err != nil {
		return nil, fmt.Errorf("experiments: lut sweep lut synth: %w", err)
	}
	r := &LUTSweepReport{Netlist: src.Name, Workers: workers}
	r.LogicalGates = len(off.Netlist.Gates)
	onStats := on.Netlist.ComputeStats()
	r.OnGates = onStats.Gates
	r.OnLUTs = onStats.LUTs

	bits := make([]bool, src.NumInputs)
	for i := range bits {
		bits[i] = (i*2654435761)>>3&1 == 1
	}
	inputs := encrypt(bits)

	run := func(nl *circuit.Netlist) (int, float64, []*lwe.Sample, error) {
		be := backend.NewPlanned(ck, workers, 1)
		defer be.Close()
		if _, err := be.Run(nl, inputs); err != nil { // untimed capture
			return 0, 0, nil, err
		}
		const replays = 3
		start := time.Now()
		var outs []*lwe.Sample
		for i := 0; i < replays; i++ {
			var err error
			if outs, err = be.Run(nl, inputs); err != nil {
				return 0, 0, nil, err
			}
		}
		boots := be.PlanStats.ExecBootstraps
		var perSec float64
		if e := time.Since(start).Seconds(); e > 0 {
			perSec = float64(replays*boots) / e
		}
		return boots, perSec, outs, nil
	}

	var offOuts, onOuts []*lwe.Sample
	if r.OffBootstraps, r.OffBootstrapsPerSec, offOuts, err = run(off.Netlist); err != nil {
		return nil, fmt.Errorf("experiments: lut sweep off path: %w", err)
	}
	if r.OnBootstraps, r.OnBootstrapsPerSec, onOuts, err = run(on.Netlist); err != nil {
		return nil, fmt.Errorf("experiments: lut sweep on path: %w", err)
	}
	if len(offOuts) != len(onOuts) {
		return nil, fmt.Errorf("experiments: lut sweep output arity mismatch: %d vs %d", len(offOuts), len(onOuts))
	}
	if r.OnBootstraps > 0 {
		r.BootstrapReduction = float64(r.OffBootstraps) / float64(r.OnBootstraps)
	}
	return r, nil
}

// RenderLUTSweep writes the human-readable form of the LUT on/off sweep.
func RenderLUTSweep(w io.Writer, r *LUTSweepReport) {
	fprintf(w, "LUT synthesis on/off on %s (%d workers)\n", r.Netlist, r.Workers)
	fprintf(w, "  off: %d gates, %d bootstraps executed, %.1f bootstraps/s\n",
		r.LogicalGates, r.OffBootstraps, r.OffBootstrapsPerSec)
	fprintf(w, "  on:  %d gates (%d LUTs), %d bootstraps executed, %.1f bootstraps/s\n",
		r.OnGates, r.OnLUTs, r.OnBootstraps, r.OnBootstrapsPerSec)
	fprintf(w, "  bootstraps per logical gate: %.2fx fewer with -lut\n", r.BootstrapReduction)
}
