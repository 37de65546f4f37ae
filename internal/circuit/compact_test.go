package circuit

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"pytfhe/internal/logic"
)

// TestGateSize pins the in-memory gate at 16 bytes: three 32-bit operand
// ids, a table and an arity. Million-gate netlists hold one per gate in
// every pass, so a new field must be a deliberate decision.
func TestGateSize(t *testing.T) {
	if got := unsafe.Sizeof(Gate{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Gate{}) = %d, want 16", got)
	}
}

// randomDAG builds an unoptimized netlist of n gates over 16 inputs whose
// operands are drawn from the last window nodes, so it has many levels of
// varied width, with a sprinkling of free NOTs and 3-input LUTs.
func randomDAG(seed int64, n, window int) *Netlist {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("dag", NoOptimizations())
	nodes := b.Inputs("x", 16)
	pick := func() NodeID { return nodes[len(nodes)-1-rng.Intn(min(window, len(nodes)))] }
	for len(b.gates) < n {
		var id NodeID
		switch r := rng.Intn(10); {
		case r == 0:
			id = b.Not(pick())
		case r == 1:
			id = b.LUT(0xE8, pick(), pick(), pick()) // majority: one bootstrap
		default:
			id = b.Gate(logic.Kind(rng.Intn(logic.NumKinds)), pick(), pick())
		}
		if id > 0 {
			nodes = append(nodes, id)
		}
	}
	b.Output("o", nodes[len(nodes)-1])
	return b.MustBuild()
}

// TestComputeStatsMatchesLevels: the counted depth, wavefront count and
// widest wavefront equal what Depth and the materialized Levels give.
func TestComputeStatsMatchesLevels(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		nl := randomDAG(seed, 50+int(seed)*40, 1+int(seed)*3)
		s := nl.ComputeStats()
		levels := nl.Levels()
		width := 0
		for _, l := range levels {
			width = max(width, len(l))
		}
		if s.Depth != nl.Depth() || s.Levels != len(levels) || s.MaxWidth != width {
			t.Fatalf("seed %d: stats depth/levels/width %d/%d/%d, Depth and Levels give %d/%d/%d",
				seed, s.Depth, s.Levels, s.MaxWidth, nl.Depth(), len(levels), width)
		}
	}
}

// TestComputeStatsAllocation bounds ComputeStats at 8 bytes per node (two
// int32 arrays) plus the per-level counts.
func TestComputeStatsAllocation(t *testing.T) {
	nl := randomDAG(7, 200_000, 4096)
	s := nl.ComputeStats()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		nl.ComputeStats()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	// Large allocations round up to whole 8 KiB pages; the level counts
	// grow by doubling.
	bound := uint64(8*(nl.NumNodes()+1) + 2*8192 + 8*4*s.Levels)
	t.Logf("%d nodes, %d levels: %d bytes per call, bound %d", nl.NumNodes(), s.Levels, perRun, bound)
	if perRun > bound {
		t.Fatalf("ComputeStats of %d nodes, %d levels allocated %d bytes, bound %d", nl.NumNodes(), s.Levels, perRun, bound)
	}
}

// TestValidateNodeCount: a netlist with more than MaxNodeID nodes would
// wrap GateID; Validate and Lint reject it with one index-space error.
func TestValidateNodeCount(t *testing.T) {
	nl := &Netlist{NumInputs: MaxNodeID, Gates: []Gate{{TT: logic.TTOf(logic.AND), A: 1, B: 2}}}
	if err := nl.Validate(); err == nil {
		t.Fatal("Validate accepted a netlist past MaxNodeID nodes")
	}
	r := Lint(nl)
	if len(r.Diags) != 1 || r.Diags[0].Code != CodeIndexSpace || r.Diags[0].Severity != SevError {
		t.Fatalf("Lint diagnostics %v, want one %s error", r.Diags, CodeIndexSpace)
	}
	nl.Gates = nil // exactly MaxNodeID nodes: in bounds
	if err := nl.Validate(); err != nil {
		t.Fatalf("Validate rejected a netlist of MaxNodeID nodes: %v", err)
	}
}
