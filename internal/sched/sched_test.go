package sched

import (
	"math/rand"
	"testing"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// wideNetlist builds a netlist with `width` independent gate chains of
// length `depth` — embarrassingly parallel work.
func wideNetlist(width, depth int) *circuit.Netlist {
	b := circuit.NewBuilder("wide", circuit.NoOptimizations())
	ins := b.Inputs("x", width+1)
	for w := 0; w < width; w++ {
		cur := ins[w]
		for d := 0; d < depth; d++ {
			cur = b.Gate(logic.NAND, cur, ins[w+1])
		}
		b.Output("o", cur)
	}
	return b.MustBuild()
}

// serialNetlist builds one long dependent chain — no parallelism.
func serialNetlist(depth int) *circuit.Netlist {
	b := circuit.NewBuilder("serial", circuit.NoOptimizations())
	a := b.Input("a")
	bb := b.Input("b")
	cur := a
	for i := 0; i < depth; i++ {
		cur = b.Gate(logic.NAND, cur, bb)
	}
	b.Output("o", cur)
	return b.MustBuild()
}

const gt = 10 * time.Millisecond

func TestWideCircuitScalesNearIdeal(t *testing.T) {
	nl := wideNetlist(360, 10) // 20 waves of work per level on 18 workers
	p := XeonNode(1, gt)
	r := Simulate(nl, p)
	if sp := r.Speedup(); sp < 12 || sp > 18 {
		t.Fatalf("wide circuit speedup %f, want near the 18-worker ideal", sp)
	}
	if r.Bootstraps != 3600 {
		t.Fatalf("bootstraps = %d", r.Bootstraps)
	}
}

func TestSerialCircuitDoesNotScale(t *testing.T) {
	nl := serialNetlist(50)
	r := Simulate(nl, XeonNode(1, gt))
	if sp := r.Speedup(); sp > 1.05 {
		t.Fatalf("serial circuit speedup %f, should be ~1", sp)
	}
}

func TestFourNodesBeatOneOnWideWork(t *testing.T) {
	nl := wideNetlist(720, 6)
	r1 := Simulate(nl, XeonNode(1, gt))
	r4 := Simulate(nl, XeonNode(4, gt))
	if r4.Makespan >= r1.Makespan {
		t.Fatalf("4 nodes (%v) should beat 1 node (%v)", r4.Makespan, r1.Makespan)
	}
	// Fig. 10 shape: 4-node speedup below the 72-worker ideal but well
	// above the single node's.
	if sp := r4.Speedup(); sp < r1.Speedup() || sp > 72 {
		t.Fatalf("4-node speedup %f out of range (1-node %f)", sp, r1.Speedup())
	}
}

func TestCommunicationIsSmallFraction(t *testing.T) {
	// Fig. 7: communication ~0.094% of a gate evaluation. Our model keeps
	// it well under 1% of the makespan for multi-node runs.
	nl := wideNetlist(720, 4)
	r := Simulate(nl, XeonNode(4, gt))
	frac := float64(r.Comm) / float64(r.Makespan)
	if frac > 0.01 {
		t.Fatalf("communication fraction %f too high", frac)
	}
	if r.Comm <= 0 {
		t.Fatal("multi-node run should pay some communication")
	}
}

func TestSingleCoreMatchesSerial(t *testing.T) {
	nl := wideNetlist(10, 10)
	r := Simulate(nl, SingleCore(gt))
	if r.Speedup() > 1.01 || r.Speedup() < 0.5 {
		t.Fatalf("single core speedup %f", r.Speedup())
	}
}

func TestFreeGatesAreCheap(t *testing.T) {
	b := circuit.NewBuilder("nots", circuit.NoOptimizations())
	x := b.Input("x")
	cur := x
	for i := 0; i < 1000; i++ {
		cur = b.Not(cur)
	}
	b.Output("o", cur)
	nl := b.MustBuild()
	r := Simulate(nl, SingleCore(gt))
	if r.Makespan > gt {
		t.Fatalf("1000 NOT gates took %v, should be far below one bootstrap", r.Makespan)
	}
}

func TestBreakdownSumsToMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		nl := wideNetlist(1+rng.Intn(100), 1+rng.Intn(10))
		r := Simulate(nl, XeonNode(1+rng.Intn(4), gt))
		sum := r.Compute + r.Comm + r.Overhead
		if sum != r.Makespan {
			t.Fatalf("breakdown %v != makespan %v", sum, r.Makespan)
		}
	}
}

func TestPlatformNames(t *testing.T) {
	if XeonNode(1, gt).Name != "xeon-1node" {
		t.Error(XeonNode(1, gt).Name)
	}
	if XeonNode(4, gt).Name != "xeon-4nodes" {
		t.Error(XeonNode(4, gt).Name)
	}
	if XeonNode(4, gt).Workers() != 72 {
		t.Error("worker count")
	}
}

func TestGateThroughput(t *testing.T) {
	if got := GateThroughput(10 * time.Millisecond); got != 100 {
		t.Fatalf("throughput = %f", got)
	}
	if GateThroughput(0) != 0 {
		t.Fatal("zero gate time should yield zero throughput")
	}
}

func TestLocalPoolPlatform(t *testing.T) {
	p := LocalPool(4, gt)
	if p.Workers() != 4 || p.Nodes != 1 {
		t.Fatalf("local pool shape: %+v", p)
	}
	if LocalPool(0, gt).Workers() != 1 {
		t.Fatal("worker floor not applied")
	}
	// No network, no dispatch model: a wide workload approaches the ideal.
	nl := wideNetlist(64, 4)
	r := Simulate(nl, p)
	if sp := r.Speedup(); sp < 3.5 || sp > 4.0 {
		t.Fatalf("local-pool speedup %f, want near the 4-worker ideal", sp)
	}
	if r.Comm != 0 || r.Overhead != 0 {
		t.Fatalf("local pool should pay no comm/dispatch: %+v", r)
	}
}
