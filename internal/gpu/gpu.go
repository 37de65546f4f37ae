// Package gpu simulates the PyTFHE GPU backend on machines without a GPU.
// Two driver models are implemented, matching the paper's Figures 8 and 9:
//
//   - CuFHEDriver reproduces the cuFHE execution style: every gate (or
//     batch of independent same-kind gates) pays a host-to-device copy, a
//     kernel launch, the kernel, and a device-to-host copy, with the CPU
//     thread blocked throughout.
//
//   - GraphDriver reproduces the PyTFHE CUDA-Graphs backend: the program is
//     cut into large sub-DAG batches; each batch launches once, resolves
//     gate dependencies on-device, keeps intermediates resident in device
//     memory, and overlaps next-batch construction on the CPU with current
//     batch execution on the GPU.
//
// Costs are parameters of a Device; the paper's two boards (Table III) are
// provided as presets whose relative throughputs follow the published
// speedups. Both drivers also emit the schedule they would execute so tests
// can verify that every gate's operands are produced before use.
package gpu

import (
	"fmt"
	"time"

	"pytfhe/internal/circuit"
)

// Device models one GPU.
type Device struct {
	Name string
	// SMs is the number of gate kernels that execute concurrently.
	SMs int
	// GateKernel is the duration of one bootstrapped-gate kernel.
	GateKernel time.Duration
	// KernelLaunch is the CPU-side cost of launching one kernel (or one
	// fused CUDA graph).
	KernelLaunch time.Duration
	// CopyPerCT is the PCIe transfer time of one ciphertext (either
	// direction).
	CopyPerCT time.Duration
	// MemCiphertexts bounds how many ciphertexts fit in device memory;
	// the graph driver sizes its batches against it.
	MemCiphertexts int
	// ConstructPerGate is the CPU-side cost of adding one gate to a CUDA
	// graph during batch construction.
	ConstructPerGate time.Duration
}

// A5000 models the NVIDIA RTX A5000 24 GB of Table III.
func A5000() Device {
	return Device{
		Name:             "rtx-a5000",
		SMs:              64,
		GateKernel:       600 * time.Microsecond,
		KernelLaunch:     10 * time.Microsecond,
		CopyPerCT:        2 * time.Microsecond,
		MemCiphertexts:   8_000_000, // 24 GB / ~2.5 KB
		ConstructPerGate: 300 * time.Nanosecond,
	}
}

// A5000Scaled returns the A5000 model with every cost expressed relative
// to a measured single-core CPU bootstrapped-gate time. The paper's
// numbers imply one GPU gate kernel costs about one CPU-core gate — the
// backend's advantage comes from the 64-way SM parallelism plus the
// elimination of per-gate transfers, landing at the ~72× (A5000) and
// ~145× (4090) full-device advantages Table IV implies.
func A5000Scaled(cpuGate time.Duration) Device {
	d := A5000()
	d.GateKernel = cpuGate
	d.KernelLaunch = cpuGate / 1500
	d.CopyPerCT = cpuGate / 7500
	d.ConstructPerGate = cpuGate / 50000
	return d
}

// RTX4090Scaled is A5000Scaled for the RTX 4090: twice the SMs and ~10%
// faster per-kernel clocks (≈2× the A5000's throughput in the paper).
func RTX4090Scaled(cpuGate time.Duration) Device {
	d := RTX4090()
	d.GateKernel = cpuGate * 9 / 10
	d.KernelLaunch = cpuGate / 1500
	d.CopyPerCT = cpuGate / 7500
	d.ConstructPerGate = cpuGate / 50000
	return d
}

// RTX4090 models the NVIDIA RTX 4090 24 GB of Table III: more SMs and
// higher clocks than the A5000 (the paper measures roughly 2× its
// throughput).
func RTX4090() Device {
	return Device{
		Name:             "rtx-4090",
		SMs:              128,
		GateKernel:       450 * time.Microsecond,
		KernelLaunch:     10 * time.Microsecond,
		CopyPerCT:        2 * time.Microsecond,
		MemCiphertexts:   8_000_000,
		ConstructPerGate: 300 * time.Nanosecond,
	}
}

// SegmentKind labels one span of the simulated timeline.
type SegmentKind string

// Timeline segment kinds.
const (
	SegCopyIn    SegmentKind = "copy-in"
	SegKernel    SegmentKind = "kernel"
	SegCopyOut   SegmentKind = "copy-out"
	SegLaunch    SegmentKind = "launch"
	SegConstruct SegmentKind = "construct"
)

// Segment is one span of simulated GPU or driver activity.
type Segment struct {
	Kind  SegmentKind
	Start time.Duration
	Dur   time.Duration
	Gates int
}

// Exec is the simulated execution of one program.
type Exec struct {
	Device   Device
	Makespan time.Duration
	// Breakdown sums time per segment kind.
	Copy      time.Duration
	Kernel    time.Duration
	Launch    time.Duration
	Construct time.Duration // non-overlapped construction time
	Batches   int
	Timeline  []Segment
	// Schedule is the gate evaluation order the driver would issue,
	// batch by batch (gate indices into the netlist).
	Schedule [][]int
}

// GatesPerSecond returns simulated throughput of bootstrapped gates.
func (e Exec) GatesPerSecond(bootstraps int) float64 {
	if e.Makespan <= 0 {
		return 0
	}
	return float64(bootstraps) / e.Makespan.Seconds()
}

// CuFHEDriver simulates per-gate cuFHE-style execution.
type CuFHEDriver struct {
	Dev Device
	// BatchCap bounds how many independent same-kind gates one cuFHE call
	// vectorizes. The paper observes that interdependent operations and
	// mixed gate types keep real programs from batching ("limiting the
	// size of each cuFHE batch"), so the default (0 → 1) models the
	// per-gate API usage of Fig. 8. Raise it to ablate the batching
	// assumption.
	BatchCap int
}

// Simulate walks the program level by level; within a level, gates of the
// same kind batch up to BatchCap, and every batch pays copy-in, launch,
// kernel, copy-out with the host blocked — the serialization of Fig. 8.
func (d CuFHEDriver) Simulate(nl *circuit.Netlist) Exec {
	cap := d.BatchCap
	if cap <= 0 {
		cap = 1
	}
	if cap > d.Dev.SMs {
		cap = d.Dev.SMs
	}
	e := Exec{Device: d.Dev}
	var now time.Duration
	emit := func(kind SegmentKind, dur time.Duration, gates int) {
		if dur <= 0 {
			return
		}
		e.Timeline = append(e.Timeline, Segment{Kind: kind, Start: now, Dur: dur, Gates: gates})
		now += dur
		switch kind {
		case SegCopyIn, SegCopyOut:
			e.Copy += dur
		case SegKernel:
			e.Kernel += dur
		case SegLaunch:
			e.Launch += dur
		}
	}
	for _, level := range nl.Levels() {
		// Group by kind: cuFHE batches only homogeneous gates.
		byKind := map[uint16][]int{}
		order := []uint16{}
		for _, gi := range level {
			g := &nl.Gates[gi]
			k := uint16(g.TT) | uint16(g.Arity)<<8
			if _, seen := byKind[k]; !seen {
				order = append(order, k)
			}
			byKind[k] = append(byKind[k], gi)
		}
		for _, k := range order {
			gates := byKind[k]
			for off := 0; off < len(gates); off += cap {
				hi := off + cap
				if hi > len(gates) {
					hi = len(gates)
				}
				batch := gates[off:hi]
				n := len(batch)
				emit(SegCopyIn, time.Duration(2*n)*d.Dev.CopyPerCT, n)
				emit(SegLaunch, d.Dev.KernelLaunch, n)
				emit(SegKernel, d.Dev.GateKernel, n)
				emit(SegCopyOut, time.Duration(n)*d.Dev.CopyPerCT, n)
				e.Batches++
				e.Schedule = append(e.Schedule, append([]int(nil), batch...))
			}
		}
	}
	e.Makespan = now
	return e
}

// GraphDriver simulates the PyTFHE CUDA-Graphs backend.
type GraphDriver struct {
	Dev Device
	// BatchGates bounds the gates per fused graph; 0 means size to device
	// memory (the paper: "hundreds of thousands of nodes").
	BatchGates int
}

// Simulate cuts the topological order into batches, executes each batch as
// one fused launch whose internal wavefronts use all SMs, keeps ciphertexts
// device-resident, and overlaps construction of batch i+1 with execution of
// batch i (Fig. 9).
func (d GraphDriver) Simulate(nl *circuit.Netlist) Exec {
	e := Exec{Device: d.Dev}
	limit := d.BatchGates
	if limit <= 0 {
		limit = d.Dev.MemCiphertexts / 4
		if limit < 1 {
			limit = 1
		}
	}
	// Cut the topological gate order into batches.
	var batches [][]int
	for off := 0; off < len(nl.Gates); off += limit {
		hi := off + limit
		if hi > len(nl.Gates) {
			hi = len(nl.Gates)
		}
		idx := make([]int, 0, hi-off)
		for gi := off; gi < hi; gi++ {
			idx = append(idx, gi)
		}
		batches = append(batches, idx)
	}
	e.Batches = len(batches)
	e.Schedule = batches

	// Per-batch execution time: internal wavefront over the batch sub-DAG.
	execTime := make([]time.Duration, len(batches))
	constructTime := make([]time.Duration, len(batches))
	level := make([]int, nl.NumNodes()+1)
	for bi, batch := range batches {
		width := map[int]int{}
		maxLvl := 0
		for _, gi := range batch {
			g := nl.Gates[gi]
			l := level[g.A]
			if lb := level[g.B]; lb > l {
				l = lb
			}
			l++
			level[nl.GateID(gi)] = l
			width[l]++
			if l > maxLvl {
				maxLvl = l
			}
		}
		var t time.Duration
		for _, w := range width {
			t += time.Duration((w+d.Dev.SMs-1)/d.Dev.SMs) * d.Dev.GateKernel
		}
		execTime[bi] = t + d.Dev.KernelLaunch
		constructTime[bi] = time.Duration(len(batch)) * d.Dev.ConstructPerGate
		// Reset intra-batch levels relative to batch boundaries: outputs of
		// this batch are ready when the batch completes, so downstream
		// batches see them at level 0.
		for _, gi := range batch {
			level[nl.GateID(gi)] = 0
		}
	}

	// Copies: only program inputs in and outputs out (intermediates stay
	// resident).
	copyIn := time.Duration(nl.NumInputs) * d.Dev.CopyPerCT
	copyOut := time.Duration(len(nl.Outputs)) * d.Dev.CopyPerCT

	// Pipeline: construct batch 0; then exec(i) overlaps construct(i+1).
	var now time.Duration
	emit := func(kind SegmentKind, start, dur time.Duration, gates int) {
		if dur <= 0 {
			return
		}
		e.Timeline = append(e.Timeline, Segment{Kind: kind, Start: start, Dur: dur, Gates: gates})
	}
	emit(SegCopyIn, now, copyIn, nl.NumInputs)
	now += copyIn
	e.Copy += copyIn

	if len(batches) > 0 {
		emit(SegConstruct, now, constructTime[0], len(batches[0]))
		now += constructTime[0]
		e.Construct += constructTime[0]
		for i := range batches {
			emit(SegLaunch, now, d.Dev.KernelLaunch, len(batches[i]))
			emit(SegKernel, now+d.Dev.KernelLaunch, execTime[i]-d.Dev.KernelLaunch, len(batches[i]))
			e.Launch += d.Dev.KernelLaunch
			e.Kernel += execTime[i] - d.Dev.KernelLaunch
			step := execTime[i]
			if i+1 < len(batches) {
				// Next-batch construction happens during execution; only
				// the excess extends the timeline.
				emit(SegConstruct, now, constructTime[i+1], len(batches[i+1]))
				if constructTime[i+1] > step {
					e.Construct += constructTime[i+1] - step
					step = constructTime[i+1]
				}
			}
			now += step
		}
	}
	emit(SegCopyOut, now, copyOut, len(nl.Outputs))
	now += copyOut
	e.Copy += copyOut
	e.Makespan = now
	return e
}

// ValidateSchedule checks that a driver's schedule respects data
// dependencies: every gate's operands are inputs or gates scheduled in an
// earlier position. It returns the number of gates checked.
func ValidateSchedule(nl *circuit.Netlist, schedule [][]int) (int, error) {
	pos := make([]int, nl.NumNodes()+1)
	for i := range pos {
		pos[i] = -1
	}
	seq := 0
	for _, batch := range schedule {
		for _, gi := range batch {
			pos[nl.GateID(gi)] = seq
			seq++
		}
	}
	checked := 0
	seq = 0
	for _, batch := range schedule {
		for _, gi := range batch {
			g := nl.Gates[gi]
			for _, in := range [2]circuit.NodeID{g.A, g.B} {
				if nl.IsInput(in) {
					continue
				}
				p := pos[in]
				if p < 0 {
					return checked, fmt.Errorf("gpu: gate %d reads unscheduled node %d", nl.GateID(gi), in)
				}
				if p >= seq {
					return checked, fmt.Errorf("gpu: gate %d scheduled before its operand %d", nl.GateID(gi), in)
				}
			}
			checked++
			seq++
		}
	}
	if checked != len(nl.Gates) {
		return checked, fmt.Errorf("gpu: schedule covers %d of %d gates", checked, len(nl.Gates))
	}
	return checked, nil
}
