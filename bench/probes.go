package main

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"time"

	"pytfhe/internal/core"
	"pytfhe/internal/logic"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/serial"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/wire"
)

// A kernel probe takes up to probeMaxSamples samples within its budget, and at
// least probeMinSamples: a Default128 bootstrap takes ~0.1 s, so the slow
// probes get a handful of samples and the fast ones the full 200. The smoke
// path cuts the budget: it checks that the probes run, not their values.
const (
	probeBudget      = 600 * time.Millisecond
	probeBudgetQuick = 20 * time.Millisecond
	probeMaxSamples  = 200
	probeMinSamples  = 5
)

// probe times fn single-threaded and returns the median ns per call and the
// heap allocations per call. Calls shorter than ~50 µs are timed in groups so
// that reading the clock stays below 1 % of a sample.
func probe(budget time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm caches and lazily built tables
	t0 := time.Now()
	fn()
	once := time.Since(t0)
	group := 1
	if once < 50*time.Microsecond {
		group = int(50*time.Microsecond/(once+1)) + 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var samples []float64
	calls := 0
	start := time.Now()
	for len(samples) < probeMaxSamples && (len(samples) < probeMinSamples || time.Since(start) < budget) {
		t := time.Now()
		for i := 0; i < group; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t).Nanoseconds())/float64(group))
		calls += group
	}
	runtime.ReadMemStats(&ms)
	return median(samples), float64(ms.Mallocs-mallocs) / float64(calls)
}

// kernelProbes carries the probe results other layers are reconciled against.
type kernelProbes struct {
	gateBinaryNs  float64 // one gate on the single-gate engine
	gateBatch16Ns float64 // one gate of a 16-wide batch on the batch engine
}

// runKernelProbes measures every kernel layer below one gate, single-threaded,
// at the parameter set of kp, by calling each layer's public function with
// operands shaped like the ones a bootstrap feeds it.
func runKernelProbes(cfg *config, kp *core.KeyPair, out *outcome) *kernelProbes {
	rng := cfg.rng("probes")
	budget := probeBudget
	if cfg.quick {
		budget = probeBudgetQuick
	}
	p := kp.Cloud.Params
	n, k := p.PolyDegree, p.RingCount
	gp := tgsw.Params{Levels: p.DecompLevels, BaseLog: p.DecompBaseLog}
	// set records the median ns of fn per member of the batch it processes.
	set := func(name string, members int, fn func()) float64 {
		ns, _ := probe(budget, fn)
		out.set(name, ns/float64(members))
		return ns / float64(members)
	}

	// torus: the half-complex transform the batch engine runs on.
	proc := torus.NewProcessor(n)
	ip := torus.NewIntPoly(n)
	for i := range ip.Coefs {
		ip.Coefs[i] = int32(rng.Uint32()%uint32(p.DecompBase())) - p.DecompBase()/2
	}
	h1, h2, hacc := torus.NewHalfPoly(n/2), torus.NewHalfPoly(n/2), torus.NewHalfPoly(n/2)
	tp := torus.NewTorusPoly(n)
	set("torus.fwd_ns", 1, func() { proc.HalfFoldInt(h1, ip) })
	proc.HalfFoldInt(h2, ip)
	set("torus.inv_ns", 1, func() { proc.AddHalfToTorus(tp, h1) })
	set("torus.mulacc_ns", 1, func() { hacc.MulAccPairTo(h1, h2, h2, h1) })

	// tgsw: external product and CMux against a real bootstrapping-key entry.
	randomTLWE := func() *tlwe.Sample {
		s := tlwe.NewSample(n, k)
		for _, poly := range s.A {
			for i := range poly.Coefs {
				poly.Coefs[i] = rng.Torus32()
			}
		}
		return s
	}
	sc := tgsw.NewScratch(n, k, gp)
	acc, src := randomTLWE(), randomTLWE()
	set("tgsw.extprod_ns", 1, func() { sc.ExternalProductAdd(acc, kp.Cloud.BK[0], src) })
	rot := 0
	set("tgsw.cmux_ns", 1, func() {
		rot = rot%(2*n-1) + 1
		sc.CMuxRotateInPlace(acc, kp.Cloud.BK[0], rot)
	})
	bs := tgsw.NewBatchScratch(n, k, gp, 16)
	accs := make([]*tlwe.Sample, 16)
	rots := make([]int, 16)
	for m := range accs {
		accs[m] = randomTLWE()
		rots[m] = 1 + m
	}
	bkHalf := kp.Cloud.BKHalf()
	set("tgsw.cmux_batch16_ns", 16, func() { bs.CMuxRotateBatchHalf(accs, bkHalf[0], rots) })

	// boot and lwe: the two halves of one bootstrap, then the whole, on both engines.
	mu := torus.Torus32(1) << 29
	fresh := func() *lwe.Sample {
		s := lwe.NewSample(p.LWEDimension)
		lwe.Encrypt(s, mu, p.LWEStdev, kp.Secret.LWE, rng)
		return s
	}
	ev := boot.NewEvaluator(kp.Cloud)
	in, res := fresh(), lwe.NewSample(p.LWEDimension)
	extr := lwe.NewSample(p.ExtractedLWEDimension())
	rotate := set("boot.blind_rotate_ns", 1, func() { ev.BootstrapWoKS(extr, mu, in) })
	keyswitch := set("lwe.keyswitch_ns", 1, func() { must(kp.Cloud.KS.Apply(res, extr)) })
	whole := set("boot.bootstrap_ns", 1, func() { must(ev.Bootstrap(res, mu, in)) })
	out.set("recon.bootstrap_split_ratio", (rotate+keyswitch)/whole)
	out.notef("blind rotate %.0f ns + key switch %.0f ns = %.3f of one bootstrap (%.0f ns)", rotate, keyswitch, (rotate+keyswitch)/whole, whole)

	bev := boot.NewBatchEvaluator(kp.Cloud, 16)
	ins, ins2, dsts, mus := make([]*lwe.Sample, 16), make([]*lwe.Sample, 16), make([]*lwe.Sample, 16), make([]torus.Torus32, 16)
	for m := range ins {
		ins[m], ins2[m], dsts[m], mus[m] = fresh(), fresh(), lwe.NewSample(p.LWEDimension), mu
	}
	set("boot.batch1_ns", 1, func() { must(bev.BootstrapBatch(dsts[:1], mus[:1], ins[:1])) })
	set("boot.batch16_ns", 16, func() { must(bev.BootstrapBatch(dsts, mus, ins)) })

	// gate: what an executor pays per gate on each engine.
	eng := gate.NewEngine(kp.Cloud)
	a, b, c := fresh(), fresh(), fresh()
	ns, allocs := probe(budget, func() { must(eng.Binary(logic.NAND, res, a, b)) })
	out.set("gate.binary_ns", ns)
	out.set("gate.allocs_per_op", allocs)
	kinds := make([]logic.Kind, 16)
	for m := range kinds {
		kinds[m] = logic.NAND
	}
	batch16 := set("gate.batch16_ns", 16, func() { must(eng.BinaryBatch(kinds, dsts, ins, ins2)) })
	const majority3 = logic.TT(0xE8)
	set("gate.lut3_ns", 1, func() { must(eng.LUT(3, majority3, res, a, b, c)) })

	runKeyProbes(kp, budget, out)
	return &kernelProbes{gateBinaryNs: ns, gateBatch16Ns: batch16}
}

// runKeyProbes measures what depends only on the key and ciphertext format:
// serialization, the wire encodings, and client-side encrypt and decrypt.
func runKeyProbes(kp *core.KeyPair, budget time.Duration, out *outcome) {
	p := kp.Cloud.Params
	bits := make([]bool, 128)
	var cts []*lwe.Sample
	ns, _ := probe(budget, func() { cts = kp.EncryptBits(bits) })
	out.set("lwe.encrypt_us", ns/1e3/float64(len(bits)))
	ns, _ = probe(budget, func() { kp.DecryptBits(cts) })
	out.set("lwe.decrypt_us", ns/1e3/float64(len(bits)))

	var raw []byte
	ns, _ = probe(budget, func() { raw = serial.MarshalSample(cts[0]) })
	out.set("serial.marshal_ns", ns)
	ns, _ = probe(budget, func() {
		_, err := serial.UnmarshalSample(raw, p.LWEDimension)
		must(err)
	})
	out.set("serial.unmarshal_ns", ns)
	out.set("serial.ct_bytes", float64(len(raw)))

	// gob's steady-state size of one ciphertext: the second of two encodes on
	// one stream, after the type description has been sent.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	must(enc.Encode(cts[0]))
	first := buf.Len()
	must(enc.Encode(cts[1]))
	out.set("wire.ct_gob_bytes", float64(buf.Len()-first))

	t0 := time.Now()
	_, err := wire.KeyHash(kp.Cloud)
	must(err)
	out.set("wire.keyhash_s", time.Since(t0).Seconds())

	var counter countingWriter
	must(gob.NewEncoder(&counter).Encode(kp.Cloud))
	out.set("boot.cloudkey_bytes", float64(counter))
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// must panics on an error the probes cannot cause with well-formed operands;
// one here is a bug in the benchmark, not a measurement.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
