package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"pytfhe/internal/asm"
	"pytfhe/internal/core"
	"pytfhe/internal/models"
	"pytfhe/internal/params"
	"pytfhe/internal/plan"
	"pytfhe/internal/synth"
	"pytfhe/internal/tfhe/noise"
	"pytfhe/internal/vipbench"
)

// MNIST_S is compiled at fixed8.8, the data type ChiselTorch defaults to.
const (
	mnistWidth = 16
	mnistFrac  = 8
	mnistScale = 1 << mnistFrac
)

// mnistRequest is what the parent sends a compile child on its standard input.
type mnistRequest struct {
	Image   int     // input is Image×Image (28: the full MNIST_S)
	Workers int     // plan partitions per level
	Traced  bool    // run synth.Optimize and asm.Assemble separately so each gets a span
	Pixels  [][]int // per image, row-major, each pixel in 1/256ths
}

// mnistStage is one stage span, timed in the child around the call into the
// layer, in Unix nanoseconds so the parent can place it on its own timeline.
type mnistStage struct {
	Name       string
	Start, End int64
}

// mnistReply is what the child prints on its standard output.
type mnistReply struct {
	Stages                      []mnistStage
	FrontendGates, SynthGates   int // gates after ChiselTorch lowering, after core.Compile's synth run
	LogicalBootstraps           int // bootstrapped gates of the emitted program
	ExecBootstraps              int
	BinaryBytes                 int
	PlanLevels, PlanArenaSlots  int
	PlanLogicalGates, ExecGates int
	Logits                      [][]int // per image, raw fixed8.8 two's complement values
}

// childMain runs in the compile child. "noop" returns at once: the parent
// times it to learn what starting the compiler costs. "mnist" is one cold
// iteration of the path `pytfhe compile -mnist S` followed by a plan-backend
// load takes, plus a plaintext evaluation of the loaded netlist.
func childMain(mode string) int {
	switch mode {
	case "noop":
		return 0
	case "mnist":
		var req mnistRequest
		if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
			fmt.Fprintf(os.Stderr, "bench child: request: %v\n", err)
			return 2
		}
		reply, err := compileMNIST(&req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(reply); err != nil {
			fmt.Fprintf(os.Stderr, "bench child: reply: %v\n", err)
			return 2
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench child: unknown mode %q\n", mode)
	return 2
}

func compileMNIST(req *mnistRequest) (*mnistReply, error) {
	reply := &mnistReply{}
	stage := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		reply.Stages = append(reply.Stages, mnistStage{Name: name, Start: start.UnixNano(), End: time.Now().UnixNano()})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	spec := mnistSpec(req.Image)
	var model *vipbench.NNWorkload
	if err := stage("chiseltorch.compile", func() (err error) {
		model, err = vipbench.CompileMNIST(spec, nil)
		return err
	}); err != nil {
		return nil, err
	}
	reply.FrontendGates = len(model.Netlist.Gates)

	// core.Compile is synth.Optimize followed by asm.Assemble. The traced pass
	// calls the two directly so each gets its own span; the work is the same.
	var binary []byte
	if req.Traced {
		var res *synth.Result
		if err := stage("synth.optimize", func() (err error) {
			res, err = synth.Optimize(model.Netlist)
			return err
		}); err != nil {
			return nil, err
		}
		reply.SynthGates = len(res.Netlist.Gates)
		if err := stage("asm.assemble", func() (err error) {
			binary, err = asm.Assemble(res.Netlist)
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		if err := stage("core.compile", func() error {
			prog, err := core.Compile(model.Netlist)
			if err != nil {
				return err
			}
			binary = prog.Binary
			reply.SynthGates = len(prog.Netlist.Gates)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	reply.BinaryBytes = len(binary)

	var loaded *core.Program
	if err := stage("asm.load", func() (err error) {
		loaded, err = core.Load(binary)
		return err
	}); err != nil {
		return nil, err
	}
	reply.LogicalBootstraps = loaded.Stats.Bootstrapped

	if err := stage("plan.compile", func() error {
		p, err := plan.Compile(loaded.Netlist, req.Workers)
		if err != nil {
			return err
		}
		st := p.Stats()
		reply.ExecBootstraps, reply.ExecGates, reply.PlanLogicalGates = st.ExecBootstraps, st.ExecGates, st.LogicalGates
		reply.PlanLevels, reply.PlanArenaSlots = st.Levels, st.ArenaSlots
		return nil
	}); err != nil {
		return nil, err
	}
	if err := stage("noise.check", func() error {
		return noise.CheckNetlist(loaded.Netlist, params.Default128())
	}); err != nil {
		return nil, err
	}
	if err := stage("circuit.plain_eval", func() error {
		for _, px := range req.Pixels {
			out, err := loaded.Netlist.Evaluate(packFixed(px))
			if err != nil {
				return err
			}
			reply.Logits = append(reply.Logits, unpackFixed(out))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return reply, nil
}

func mnistSpec(image int) models.MNISTSpec {
	spec := models.MNISTS()
	if image != spec.Image {
		spec = spec.Scaled(image)
	}
	return spec
}

// packFixed lays raw fixed8.8 values out as the netlist's input bits: element
// by element, 16 bits each, least significant first.
func packFixed(raw []int) []bool {
	bits := make([]bool, 0, len(raw)*mnistWidth)
	for _, v := range raw {
		for i := 0; i < mnistWidth; i++ {
			bits = append(bits, v>>uint(i)&1 == 1)
		}
	}
	return bits
}

// unpackFixed reads 16-bit two's-complement elements back from output bits.
func unpackFixed(bits []bool) []int {
	out := make([]int, len(bits)/mnistWidth)
	for e := range out {
		var v uint16
		for i := 0; i < mnistWidth; i++ {
			if bits[e*mnistWidth+i] {
				v |= 1 << uint(i)
			}
		}
		out[e] = int(int16(v))
	}
	return out
}

// mnistReference is an independent float64 Conv→ReLU→MaxPool→Linear over the
// spec's weights. It shares nothing with the compiler under test but the
// weights and the layer shapes. Alongside each logit it returns the interval
// a correct fixed8.8 circuit must land in: every constant multiply floors
// its product to 1/256, so a convolution output is low by at most Conv²/256,
// ReLU and max-pool preserve that, and the linear layer scales it by |w| and
// floors once more per product.
func mnistReference(spec models.MNISTSpec, pixels []int) (logits, below, above []float64) {
	w := spec.GenWeights()
	const ulp = 1.0 / mnistScale
	img, co, po := spec.Image, spec.ConvOut(), spec.PoolOut()
	flat := make([]float64, 0, spec.FlatSize())
	for k := 0; k < spec.Kernels; k++ {
		conv := make([]float64, co*co)
		for y := 0; y < co; y++ {
			for x := 0; x < co; x++ {
				s := w.ConvB[k]
				for dy := 0; dy < spec.Conv; dy++ {
					for dx := 0; dx < spec.Conv; dx++ {
						s += w.ConvW[(k*spec.Conv+dy)*spec.Conv+dx] * float64(pixels[(y+dy)*img+x+dx]) * ulp
					}
				}
				conv[y*co+x] = math.Max(s, 0)
			}
		}
		for y := 0; y < po; y++ {
			for x := 0; x < po; x++ {
				m := math.Inf(-1)
				for dy := 0; dy < spec.Pool; dy++ {
					for dx := 0; dx < spec.Pool; dx++ {
						m = math.Max(m, conv[(y+dy)*co+x+dx])
					}
				}
				flat = append(flat, m)
			}
		}
	}
	convErr := float64(spec.Conv*spec.Conv) * ulp
	for c := 0; c < spec.Classes; c++ {
		s, absW := w.LinB[c], 0.0
		for i, v := range flat {
			s += w.LinW[c*len(flat)+i] * v
			absW += math.Abs(w.LinW[c*len(flat)+i])
		}
		logits = append(logits, s)
		below = append(below, float64(len(flat))*ulp+absW*convErr)
		above = append(above, absW*convErr)
	}
	return logits, below, above
}

// runMNIST is mnist_compile: the full MNIST_S compiled cold in a child process
// per iteration, iterations back to back for the window. No bootstraps run.
func runMNIST(cfg *config, rec *recorder) (*outcome, error) {
	out := newOutcome()
	image := models.MNISTS().Image
	if cfg.quick {
		image = 10
	}
	spec := mnistSpec(image)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}

	// Set-up is what precedes the first compile: drawing the images, computing
	// their reference logits, and starting the compiler process (package
	// initialisation included). It is milliseconds, so it is repeated and the
	// median reported.
	const images = 2
	var req mnistRequest
	type reference struct{ logits, below, above []float64 }
	var refs []reference
	var setups []float64
	for rep := 0; rep < 25; rep++ {
		t0 := time.Now()
		rng := cfg.rng("images")
		req = mnistRequest{Image: image, Workers: cfg.workers, Traced: cfg.trace}
		refs = refs[:0]
		for i := 0; i < images; i++ {
			px := make([]int, image*image)
			for j := range px {
				px[j] = int(rng.Uint32() % mnistScale) // pixel intensity in [0, 1)
			}
			req.Pixels = append(req.Pixels, px)
			l, lo, hi := mnistReference(spec, px)
			refs = append(refs, reference{l, lo, hi})
		}
		c, err := procs.start("compile-child", self, nil, "-child", "noop")
		if err != nil {
			return nil, err
		}
		if err := c.wait(10 * time.Second); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.setN("setup_s", median(setups), len(setups))
	stdin, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

	var last *mnistReply
	var peakRSS, maxErr float64
	stageSums := map[string]time.Duration{}
	var stageTotal time.Duration
	wrong := 0
	ops, window, err := closedLoop(cfg.window, 1, func(i int) error {
		out.attempted++
		opSpan := rec.begin("op", -1, i, 0)
		defer rec.end(opSpan)
		c, err := procs.start("compile-child", self, stdin, "-child", "mnist")
		if err != nil {
			return err
		}
		if err := c.wait(runDeadline); err != nil {
			return fmt.Errorf("%w: %s", err, c.out.String())
		}
		var reply mnistReply
		if err := json.Unmarshal(c.out.Bytes(), &reply); err != nil {
			return fmt.Errorf("child reply: %w", err)
		}
		peakRSS = math.Max(peakRSS, c.maxRSSMB())
		for _, st := range reply.Stages {
			d := time.Duration(st.End - st.Start)
			stageSums[st.Name] += d
			stageTotal += d
			rec.add(span{Name: st.Name, Start: time.Unix(0, st.Start), End: time.Unix(0, st.End), Parent: opSpan, Req: i, Lane: 1})
		}
		if last != nil && (reply.ExecBootstraps != last.ExecBootstraps || reply.BinaryBytes != last.BinaryBytes) {
			out.fail("iteration %d: compiler is not deterministic (%d bootstraps, %d bytes; before %d, %d)",
				i, reply.ExecBootstraps, reply.BinaryBytes, last.ExecBootstraps, last.BinaryBytes)
			wrong++
		}
		last = &reply
		for n, ref := range refs {
			if n >= len(reply.Logits) || len(reply.Logits[n]) != len(ref.logits) {
				out.fail("iteration %d image %d: %d logits missing", i, n, len(ref.logits))
				wrong++
				break
			}
			for c, want := range ref.logits {
				diff := float64(reply.Logits[n][c])/mnistScale - want
				maxErr = math.Max(maxErr, math.Abs(diff))
				const eps = 1e-9 // float64 rounding of the reference itself
				if diff < -ref.below[c]-eps || diff > ref.above[c]+eps {
					out.fail("iteration %d image %d logit %d: circuit %.4f, float64 reference %.4f, allowed [-%.4f, +%.4f]",
						i, n, c, float64(reply.Logits[n][c])/mnistScale, want, ref.below[c], ref.above[c])
					wrong++
				}
			}
		}
		return nil
	})
	if err != nil {
		out.fail("iteration %d: %v", len(ops), err)
	}
	if len(ops) == 0 {
		return out, nil
	}
	good := len(ops)
	if wrong > 0 {
		good = 0 // a miscompiled model is not throughput
	}
	gates := int64(last.LogicalBootstraps)
	out.setOps(ops, int64(good)*gates, window)
	out.set("peak_rss_mb", peakRSS)
	out.set("bootstraps_per_gate", float64(last.ExecBootstraps)/float64(gates))
	out.set("binary_bytes_per_gate", float64(last.BinaryBytes)/float64(gates))
	out.notef("largest |circuit - float64 reference| over %d logits: %.4f", len(ops)*images*spec.Classes, maxErr)

	if cfg.trace {
		n := float64(len(ops))
		out.setN("trace.op_s_p50", median(seconds(ops)), len(ops))
		for name, metric := range map[string]string{
			"chiseltorch.compile": "chiseltorch.compile_s", "synth.optimize": "synth.optimize_s",
			"asm.assemble": "asm.assemble_s", "asm.load": "asm.load_s", "plan.compile": "plan.compile_s",
			"noise.check": "noise.check_s", "circuit.plain_eval": "circuit.plain_eval_s",
		} {
			out.set(metric, stageSums[name].Seconds()/n)
		}
		out.set("chiseltorch.gates_out", float64(last.FrontendGates))
		out.set("synth.gates_out", float64(last.SynthGates))
		out.set("asm.bytes_per_gate", float64(last.BinaryBytes)/float64(last.SynthGates))
		out.set("plan.dedup_ratio", float64(last.ExecGates)/float64(last.PlanLogicalGates))
		out.set("plan.levels", float64(last.PlanLevels))
		out.set("plan.arena_slots", float64(last.PlanArenaSlots))
		var total time.Duration
		for _, d := range ops {
			total += d
		}
		residual := (total - stageTotal).Seconds() / total.Seconds()
		out.set("recon.stage_residual_share", residual)
		out.reconcile(math.Abs(residual) <= 0.05, "recon.stage_residual_share %.4f (the seven stages sum to %.3fs of %.3fs per iteration)",
			residual, stageTotal.Seconds()/n, total.Seconds()/n)
	}
	return out, nil
}
