// Package sched analyzes gate-DAG schedules and predicts execution time on
// modeled platforms. It implements the wavefront (BFS) schedule of
// Algorithm 1 as a discrete cost simulation: given a netlist and a platform
// (workers per node, node count, per-gate bootstrap cost, task dispatch
// overhead, network parameters), it returns the makespan, the ideal time,
// and the compute/communication/overhead breakdown.
//
// This is how the multi-node and GPU figures are regenerated on a machine
// that has neither a cluster nor a GPU: the single-core bootstrapped-gate
// cost is *measured* on the real TFHE implementation, and the schedule
// around it is simulated. Absolute numbers follow the local calibration;
// the shapes (who wins, where parallelism saturates) follow the schedule.
package sched

import (
	"time"

	"pytfhe/internal/circuit"
)

// CostModel carries the per-operation costs of one platform.
type CostModel struct {
	// GateTime is the single-core cost of one bootstrapped gate.
	GateTime time.Duration
	// FreeGateTime is the cost of a linear gate (NOT/COPY).
	FreeGateTime time.Duration
	// DispatchOverhead is the per-task submission cost (the Ray task
	// overhead in the paper's backend).
	DispatchOverhead time.Duration
	// LevelSync is the per-wavefront barrier cost.
	LevelSync time.Duration
	// CiphertextBytes is the wire size of one LWE ciphertext (2.46 KB at
	// the default parameters).
	CiphertextBytes int
	// NetBandwidth is the inter-node bandwidth in bytes/second; 0 means
	// all workers are local and no gate pays network cost.
	NetBandwidth float64
	// RemoteFraction is the fraction of gate operands that cross a node
	// boundary when Nodes > 1 (operands resident on another node).
	RemoteFraction float64
}

// Platform is a modeled execution target.
type Platform struct {
	Name           string
	Nodes          int
	WorkersPerNode int
	Cost           CostModel
}

// Workers returns the total worker count.
func (p Platform) Workers() int { return p.Nodes * p.WorkersPerNode }

// XeonNode models the paper's CPU platform (Table II: 2× Xeon Gold 5215).
// The paper measures an ideal scaling of 18 workers per node, so that is
// the modeled worker count. gateTime is the calibrated single-core
// bootstrapped-gate cost.
func XeonNode(nodes int, gateTime time.Duration) Platform {
	return Platform{
		Name:           nodeName(nodes),
		Nodes:          nodes,
		WorkersPerNode: 18,
		Cost: CostModel{
			GateTime:         gateTime,
			FreeGateTime:     gateTime / 2000,
			DispatchOverhead: gateTime / 90, // sub-ms Ray task overhead
			LevelSync:        gateTime / 20,
			CiphertextBytes:  2524,
			NetBandwidth:     125e6, // 1 Gbit NIC (Table II)
			RemoteFraction:   0.75,  // 3 of 4 nodes hold remote operands
		},
	}
}

func nodeName(nodes int) string {
	if nodes == 1 {
		return "xeon-1node"
	}
	return "xeon-" + itoa(nodes) + "nodes"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// LocalPool models the in-process multi-worker executors (backend.Pool and
// backend.Planned): workers goroutines on one node sharing memory, so gates
// pay no network cost and dispatch is a channel operation — negligible next
// to a bootstrap. Feeding it a measured gate time makes Simulate's
// makespan directly comparable to backend.Planned's wall clock (see the
// calibration test in internal/backend).
func LocalPool(workers int, gateTime time.Duration) Platform {
	if workers < 1 {
		workers = 1
	}
	return Platform{
		Name:           "local-pool",
		Nodes:          1,
		WorkersPerNode: workers,
		Cost: CostModel{
			GateTime:     gateTime,
			FreeGateTime: gateTime / 2000,
		},
	}
}

// SingleCore models the single-threaded CPU backend baseline.
func SingleCore(gateTime time.Duration) Platform {
	return Platform{
		Name:           "single-core",
		Nodes:          1,
		WorkersPerNode: 1,
		Cost: CostModel{
			GateTime:     gateTime,
			FreeGateTime: gateTime / 2000,
		},
	}
}

// Result is the outcome of simulating one netlist on one platform.
type Result struct {
	Platform Platform
	// Makespan is the simulated end-to-end execution time.
	Makespan time.Duration
	// Serial is the single-worker execution time of the same work.
	Serial time.Duration
	// Ideal is Serial divided by the worker count (perfect scaling).
	Ideal time.Duration
	// Compute, Comm, Overhead decompose the makespan.
	Compute  time.Duration
	Comm     time.Duration
	Overhead time.Duration
	// Levels is the number of wavefronts; CriticalPath the bootstrapped
	// depth of the DAG.
	Levels       int
	CriticalPath int
	Bootstraps   int
}

// Speedup returns Serial / Makespan.
func (r Result) Speedup() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Serial) / float64(r.Makespan)
}

// IdealSpeedup returns the platform's perfect-scaling speedup.
func (r Result) IdealSpeedup() float64 { return float64(r.Platform.Workers()) }

// Efficiency returns Speedup / Workers.
func (r Result) Efficiency() float64 {
	return r.Speedup() / float64(r.Platform.Workers())
}

// Simulate predicts the wavefront execution of nl on p.
func Simulate(nl *circuit.Netlist, p Platform) Result {
	c := p.Cost
	res := Result{
		Platform:     p,
		CriticalPath: nl.Depth(),
	}
	levels := nl.Levels()
	res.Levels = len(levels)
	w := p.Workers()
	if w < 1 {
		w = 1
	}

	// Per-gate communication cost: a gate moves two input ciphertexts in
	// and one result out; when operands live on another node that payload
	// crosses the NIC.
	var commPerGate time.Duration
	if p.Nodes > 1 && c.NetBandwidth > 0 {
		bytes := float64(3 * c.CiphertextBytes)
		commPerGate = time.Duration(bytes / c.NetBandwidth * c.RemoteFraction * float64(time.Second))
	}

	var makespan, compute, comm, overhead, serial time.Duration
	for _, level := range levels {
		boot, free := 0, 0
		for _, gi := range level {
			if nl.Gates[gi].NeedsBootstrap() {
				boot++
			} else {
				free++
			}
		}
		res.Bootstraps += boot
		serial += time.Duration(boot)*c.GateTime + time.Duration(free)*c.FreeGateTime

		// Tasks this level, distributed over w workers; the level finishes
		// when the most loaded worker finishes.
		waves := (boot + w - 1) / w
		if boot == 0 {
			waves = 0
		}
		lvlCompute := time.Duration(waves) * c.GateTime
		// Free gates ride along on worker 0.
		lvlCompute += time.Duration((free+w-1)/w) * c.FreeGateTime
		// Dispatch: every task submission costs the driver; submissions
		// from a single driver serialize, so it scales with total tasks.
		lvlOverhead := time.Duration(boot+free)*c.DispatchOverhead + c.LevelSync
		lvlComm := time.Duration(waves) * commPerGate

		makespan += lvlCompute + lvlOverhead + lvlComm
		compute += lvlCompute
		comm += lvlComm
		overhead += lvlOverhead
	}
	res.Makespan = makespan
	res.Compute = compute
	res.Comm = comm
	res.Overhead = overhead
	res.Serial = serial
	res.Ideal = serial / time.Duration(w)
	return res
}

// GateThroughput converts a calibrated gate time into gates/second.
func GateThroughput(gateTime time.Duration) float64 {
	if gateTime <= 0 {
		return 0
	}
	return float64(time.Second) / float64(gateTime)
}
