package vipbench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/frameworks"
	"pytfhe/internal/logic"
	"pytfhe/internal/models"
	"pytfhe/internal/plan"
	"pytfhe/internal/synth"
)

// netlistHash is a content hash of a netlist's structure: input count,
// every gate's function and operands and every output id. Port names are
// left out; they do not reach the binary or the plan. A gate's table is
// hashed as gates once held it, a classic kind and a LUT table in two
// fields, each zero when the other is in use, so recorded hashes still
// match.
func netlistHash(nl *circuit.Netlist) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(nl.NumInputs))
	put(int64(len(nl.Gates)))
	for _, g := range nl.Gates {
		var kind logic.Kind
		tt := g.TT
		if !g.IsLUT() {
			kind, tt = g.Kind(), 0
		}
		put(int64(kind))
		put(int64(g.A))
		put(int64(g.B))
		put(int64(g.C))
		put(int64(tt))
		put(int64(g.Arity))
	}
	put(int64(len(nl.Outputs)))
	for _, o := range nl.Outputs {
		put(int64(o))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedCompile is one row of TestCompilePathPinned: the hashes of a
// frontend netlist, of its synth.Optimize result, and of the plan
// compiled from that result. The plan of the raw frontend netlist is
// pinned too: it leaves all deduplication to the plan. Plans were once
// compiled for a worker count; planWorkers1 and planFrontend are the
// one-worker hashes of that time, which the flat plan reproduces.
type pinnedCompile struct {
	name                  string
	build                 func() (*circuit.Netlist, error)
	optimize              func(*circuit.Netlist) (*synth.Result, error)
	frontend, synthesized string
	planWorkers1          string
	planFrontend          string // the frontend netlist's plan
}

// TestCompilePathPinned holds the whole compile path — frontend builders,
// every synth pass and plan.Compile's deduplication and layout — to hashes
// recorded before the builder's CSE key, the synth rebuilders and the plan's
// function keys were rewritten for speed. Those rewrites are meant to be
// pure data-structure changes, so any drift here is a behaviour change.
// The frameworks baselines build with CSE and constant folding off, so
// their frontend rows cover the builder's literal path.
func TestCompilePathPinned(t *testing.T) {
	mnist := models.MNISTS().Scaled(10)
	baseline := func(c *frameworks.Compiler) func() (*circuit.Netlist, error) {
		return func() (*circuit.Netlist, error) { return c.CompileMNIST(mnist) }
	}
	chiselTorch := func() (*circuit.Netlist, error) {
		w, err := CompileMNIST(mnist, nil)
		if err != nil {
			return nil, err
		}
		return w.Netlist, nil
	}
	rows := []pinnedCompile{
		{
			name: "chiseltorch-mnist_s@10", build: chiselTorch, optimize: synth.Optimize,
			frontend:     "17ccaa51da28daa840d510d7edd104ae48c2bc50067c8654791248d46cc9fb22",
			synthesized:  "17ccaa51da28daa840d510d7edd104ae48c2bc50067c8654791248d46cc9fb22",
			planWorkers1: "21ebda89b02242a1e9af221f609a19f517e6d48e53f549787b065e7e8f6c0ff0",
			planFrontend: "21ebda89b02242a1e9af221f609a19f517e6d48e53f549787b065e7e8f6c0ff0",
		},
		{
			name: "chiseltorch-mnist_s@10-lut", build: chiselTorch, optimize: synth.OptimizeLUT,
			frontend:     "17ccaa51da28daa840d510d7edd104ae48c2bc50067c8654791248d46cc9fb22",
			synthesized:  "cefeaaefde8c7633272e3ce1ad8698bd257ea9117abeca54d7c583cd073d3e8b",
			planWorkers1: "3f01aede042b59a7de8013ecdffae3806f879a27d1501f8fb065749f13b0a1f2",
			planFrontend: "21ebda89b02242a1e9af221f609a19f517e6d48e53f549787b065e7e8f6c0ff0",
		},
		{
			name: "transpiler-mnist_s@10", build: baseline(frameworks.Transpiler()), optimize: synth.Optimize,
			frontend:     "90d3a3b58ebd09a655443cc5219abd36c6c7541e7aeb7eb336b039d24b9f9256",
			synthesized:  "2f06ae626613698431e68d4b629789c76f75e44d2458cf410974d7701fd14feb",
			planWorkers1: "1c57123ca52c4156465f70bd4742d414673fee8ad4889a96ead9ae57cbcbab28",
			planFrontend: "5a0bed9adaac2573301a06ddf8b355f0ef4d97e2c6c5300cbc2d28d6594abebb",
		},
		{
			name: "cingulata-mnist_s@10", build: baseline(frameworks.Cingulata()), optimize: synth.Optimize,
			frontend:     "1ab1296100f3a34f33b1188328e5164bc3a3261ef6361c1088d078d5b56b69d0",
			synthesized:  "efc2f91eeb9ee97abfb1902aec4de3b188f7af512c76d31ee039220b0cfeb05f",
			planWorkers1: "e50c92c2b050ec8e47cfef4d0c545597abc4d92915948f57c094b2a27a6ba0ab",
			planFrontend: "58b74d716037803b7390d6fe847922e3303e8d9d7e73b38709ca0b4426136e1c",
		},
		{
			name: "e3-mnist_s@10", build: baseline(frameworks.E3()), optimize: synth.Optimize,
			frontend:     "11f20e38eb9f76b447de3205c84ea89b983c6e3ad2ca1559d9bf25e51796e2fa",
			synthesized:  "f16f234ee11c1cb7bafd5ea2112db9cc686e28ba54067b52a31c60d78853b15c",
			planWorkers1: "37302038c546a7617769d082efd4686d9b816d0c58b1c5a0475bd533b9676cfa",
			planFrontend: "c427943d331e0a2f6dd1a5d48eefc180adf8429eaf6fc269a1e49ddd5ce1af12",
		},
		{
			name: "hamming-distance", build: HammingDistance().Build, optimize: synth.Optimize,
			frontend:     "28f2a9d1511862a975b441707960be7ecdcd94d22254e6058794c8e9c5b2aa48",
			synthesized:  "28f2a9d1511862a975b441707960be7ecdcd94d22254e6058794c8e9c5b2aa48",
			planWorkers1: "3fd2ce959edea0f671c02be957c59ee1c775fe9a88301c5f65fd394a0e8a7ef6",
			planFrontend: "3fd2ce959edea0f671c02be957c59ee1c775fe9a88301c5f65fd394a0e8a7ef6",
		},
	}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			nl, err := r.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.optimize(nl)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what, got, want string) {
				if got != want {
					t.Errorf("%s hash %s, pinned %s", what, got, want)
				}
			}
			check("frontend netlist", netlistHash(nl), r.frontend)
			check("synthesized netlist", netlistHash(res.Netlist), r.synthesized)
			p, err := plan.Compile(res.Netlist)
			if err != nil {
				t.Fatal(err)
			}
			check("plan fingerprint", p.Fingerprint(), r.planWorkers1)
			// The worker count bench/ still passes is ignored.
			p2, err := plan.Compile(res.Netlist, 2)
			if err != nil {
				t.Fatal(err)
			}
			check("plan fingerprint at two workers", p2.Fingerprint(), p.Fingerprint())
			p, err = plan.Compile(nl)
			if err != nil {
				t.Fatal(err)
			}
			check("frontend plan fingerprint", p.Fingerprint(), r.planFrontend)
		})
	}
}
