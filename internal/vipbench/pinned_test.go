package vipbench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/frameworks"
	"pytfhe/internal/models"
	"pytfhe/internal/plan"
	"pytfhe/internal/synth"
)

// netlistHash is a content hash of a netlist's structure: input count,
// every gate field and every output id. Port names are left out; they do
// not reach the binary or the plan.
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
		put(int64(g.Kind))
		put(int64(g.A))
		put(int64(g.B))
		put(int64(g.C))
		put(int64(g.TT))
		put(int64(g.Arity))
	}
	put(int64(len(nl.Outputs)))
	for _, o := range nl.Outputs {
		put(int64(o))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedCompile is one row of TestCompilePathPinned: the hashes of a
// frontend netlist, of its synth.Optimize result, and of the plans
// compiled from that result at one and two workers. The plan of the raw
// frontend netlist is pinned too: it leaves all deduplication to the plan.
type pinnedCompile struct {
	name                       string
	build                      func() (*circuit.Netlist, error)
	optimize                   func(*circuit.Netlist) (*synth.Result, error)
	frontend, synthesized      string
	planWorkers1, planWorkers2 string
	planFrontend               string // the frontend netlist's plan at two workers
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
			planWorkers2: "9abc4321dcc9d7bcdaeb48e7500abcc03119880142906640b680650d98bd2eea",
			planFrontend: "9abc4321dcc9d7bcdaeb48e7500abcc03119880142906640b680650d98bd2eea",
		},
		{
			name: "chiseltorch-mnist_s@10-lut", build: chiselTorch, optimize: synth.OptimizeLUT,
			frontend:     "17ccaa51da28daa840d510d7edd104ae48c2bc50067c8654791248d46cc9fb22",
			synthesized:  "cefeaaefde8c7633272e3ce1ad8698bd257ea9117abeca54d7c583cd073d3e8b",
			planWorkers1: "3f01aede042b59a7de8013ecdffae3806f879a27d1501f8fb065749f13b0a1f2",
			planWorkers2: "99af499da0d00be251facfd9ef8b4c16823063e60c0e084ec6a51185f948b89b",
			planFrontend: "9abc4321dcc9d7bcdaeb48e7500abcc03119880142906640b680650d98bd2eea",
		},
		{
			name: "transpiler-mnist_s@10", build: baseline(frameworks.Transpiler()), optimize: synth.Optimize,
			frontend:     "90d3a3b58ebd09a655443cc5219abd36c6c7541e7aeb7eb336b039d24b9f9256",
			synthesized:  "2f06ae626613698431e68d4b629789c76f75e44d2458cf410974d7701fd14feb",
			planWorkers1: "1c57123ca52c4156465f70bd4742d414673fee8ad4889a96ead9ae57cbcbab28",
			planWorkers2: "e28ea4c834b4cba5f733cdb18e549ed9e237860a354ef5ea91692a47e8fd3e28",
			planFrontend: "096ac85d3ad2975a330aaacd309a9130463e43fcf78a9214098260dd3b7e8627",
		},
		{
			name: "cingulata-mnist_s@10", build: baseline(frameworks.Cingulata()), optimize: synth.Optimize,
			frontend:     "1ab1296100f3a34f33b1188328e5164bc3a3261ef6361c1088d078d5b56b69d0",
			synthesized:  "efc2f91eeb9ee97abfb1902aec4de3b188f7af512c76d31ee039220b0cfeb05f",
			planWorkers1: "e50c92c2b050ec8e47cfef4d0c545597abc4d92915948f57c094b2a27a6ba0ab",
			planWorkers2: "c8180211878cf30785583512874e30151aae6e2c147c8c4d065297239954deaa",
			planFrontend: "1fe40b8ea4526d04856bbab97084a717b41a97076c6a5e07d13f1f00f234c34c",
		},
		{
			name: "e3-mnist_s@10", build: baseline(frameworks.E3()), optimize: synth.Optimize,
			frontend:     "11f20e38eb9f76b447de3205c84ea89b983c6e3ad2ca1559d9bf25e51796e2fa",
			synthesized:  "f16f234ee11c1cb7bafd5ea2112db9cc686e28ba54067b52a31c60d78853b15c",
			planWorkers1: "37302038c546a7617769d082efd4686d9b816d0c58b1c5a0475bd533b9676cfa",
			planWorkers2: "af8e6e57faf872ffce106b93564021fb051be15c158f14f5267e38b9075aa7b6",
			planFrontend: "6c3187ed3afdea3f72019f80dda456fe8aacc234176cb6f411ec52f96f99f4ba",
		},
		{
			name: "hamming-distance", build: HammingDistance().Build, optimize: synth.Optimize,
			frontend:     "28f2a9d1511862a975b441707960be7ecdcd94d22254e6058794c8e9c5b2aa48",
			synthesized:  "28f2a9d1511862a975b441707960be7ecdcd94d22254e6058794c8e9c5b2aa48",
			planWorkers1: "3fd2ce959edea0f671c02be957c59ee1c775fe9a88301c5f65fd394a0e8a7ef6",
			planWorkers2: "139f6abcbb1ea7c68766b33cac80ff585b4d55d0c96b634e1ff57c2030410dac",
			planFrontend: "139f6abcbb1ea7c68766b33cac80ff585b4d55d0c96b634e1ff57c2030410dac",
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
			for _, w := range []struct {
				workers int
				want    string
			}{{1, r.planWorkers1}, {2, r.planWorkers2}} {
				p, err := plan.Compile(res.Netlist, w.workers)
				if err != nil {
					t.Fatal(err)
				}
				check("plan fingerprint", p.Fingerprint(), w.want)
			}
			p, err := plan.Compile(nl, 2)
			if err != nil {
				t.Fatal(err)
			}
			check("frontend plan fingerprint", p.Fingerprint(), r.planFrontend)
		})
	}
}
