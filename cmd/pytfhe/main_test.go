package main

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/core"
	"pytfhe/internal/experiments"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/noise"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/torus"
)

func TestParseBits(t *testing.T) {
	bits, err := parseBits("10 1,1 0")
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true, false}
	if len(bits) != len(want) {
		t.Fatalf("parsed %d bits", len(bits))
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d = %v", i, bits[i])
		}
	}
	if _, err := parseBits("10x"); err == nil {
		t.Fatal("invalid character accepted")
	}
}

func TestFormatBits(t *testing.T) {
	if got := formatBits([]bool{true, false, true}); got != "101" {
		t.Fatalf("formatBits = %q", got)
	}
}

func TestParseDType(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"sint8", "SInt(8)"},
		{"fixed8.8", "Fixed(8,8)"},
		{"float5.11", "Float(5,11)"},
	}
	for _, c := range cases {
		dt, err := parseDType(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if dt.Name() != c.want {
			t.Fatalf("%s -> %s, want %s", c.in, dt.Name(), c.want)
		}
	}
	for _, bad := range []string{"", "int8", "fixed8", "float8", "sint0", "sint-3"} {
		if _, err := parseDType(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
	var _ chiseltorch.DType // dtype interface is the contract under test
}

func TestParseBackendSpec(t *testing.T) {
	cases := []struct {
		in      string
		workers int
		batch   int
		kind    string
		count   int
	}{
		{"auto", 1, 1, "single", 1},
		{"auto", 4, 1, "plan", 4}, // plan replay is the default multi-worker executor
		{"auto:6", 1, 1, "plan", 6},
		{"auto", 1, 16, "plan", 1}, // …and the default batching one: -workers 1 -batch 16 used to die as "got single"
		{"auto", 4, 16, "plan", 4},
		{"single", 8, 1, "single", 1},
		{"pool", 3, 1, "pool", 3},
		{"pool:5", 1, 0, "pool", 5},
		{"plan", 2, 1, "plan", 2},
		{"plan:7", 1, 16, "plan", 7},
		{"plan", 0, 1, "plan", 1},
		{"plan:2", 1, 16, "plan", 2},
		{"cluster:127.0.0.1:7700", 1, 1, "cluster", 0},
	}
	for _, c := range cases {
		spec, err := parseBackendSpec(c.in, c.workers, c.batch)
		if err != nil {
			t.Fatalf("%s/%d/%d: %v", c.in, c.workers, c.batch, err)
		}
		if spec.kind != c.kind || spec.workers != c.count || spec.batch != max(c.batch, 1) {
			t.Fatalf("%s/%d/%d -> %+v, want %s:%d", c.in, c.workers, c.batch, spec, c.kind, c.count)
		}
	}
	for _, bad := range []string{"", "ray", "pool:", "pool:x", "plan:0", "plan:-2", "cluster", "cluster:"} {
		if _, err := parseBackendSpec(bad, 1, 1); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
	// The barrier-free executor is gone: its spelling is an unknown kind,
	// and the error lists the kinds that exist.
	for _, gone := range []string{"async", "async:2"} {
		_, err := parseBackendSpec(gone, 2, 1)
		if err == nil || !strings.Contains(err.Error(), "unknown backend") || !strings.Contains(err.Error(), "plan[:N]") {
			t.Fatalf("-backend %s: err = %v", gone, err)
		}
	}
	// A kind that merely starts with "cluster" is unknown, not a cluster
	// with a strange address, and the error names the one cluster kind.
	_, err := parseBackendSpec("clusters:127.0.0.1:7700", 1, 1)
	if err == nil || !strings.Contains(err.Error(), "unknown backend") || !strings.Contains(err.Error(), "cluster:addr") {
		t.Fatalf("-backend clusters:addr: err = %v", err)
	}
	// -batch where it would be ignored is an error that names the flag the
	// user typed, not the kind it resolved to.
	for _, be := range []string{"single", "pool:4", "cluster:127.0.0.1:7700"} {
		_, err := parseBackendSpec(be, 1, 16)
		if err == nil || !strings.Contains(err.Error(), "-batch") || !strings.Contains(err.Error(), strings.SplitN(be, ":", 2)[0]) {
			t.Fatalf("-backend %s -batch 16: err = %v", be, err)
		}
	}
}

func TestParamSet(t *testing.T) {
	for _, name := range []string{"test", "default128", "default"} {
		if _, err := paramSet(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := paramSet("bogus"); err == nil {
		t.Fatal("unknown set accepted")
	}
}

// TestCheckTargets drives the `pytfhe check` analyses over the quickstart
// example and the bench netlist: both must pass the noise budget with
// positive headroom and verify as sound plans under the production
// parameter set — the acceptance bar the CLI command enforces.
func TestCheckTargets(t *testing.T) {
	ex, err := exampleNetlists()
	if err != nil {
		t.Fatal(err)
	}
	targets := []checkTarget{{"bench/ripple-imbalanced", experiments.ImbalancedNetlist()}}
	for _, tg := range ex {
		if tg.name == "examples/quickstart" {
			targets = append(targets, tg)
		}
	}
	if len(targets) != 2 {
		t.Fatalf("quickstart target missing from %d example netlists", len(ex))
	}
	p := params.Default128()
	for _, tg := range targets {
		rep, err := noise.AnalyzeNetlist(tg.nl, p, 0)
		if err != nil {
			t.Fatalf("%s: %v", tg.name, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("%s over budget: %v", tg.name, err)
		}
		if rep.HeadroomBits <= 0 {
			t.Fatalf("%s: headroom %.3f bits, want > 0", tg.name, rep.HeadroomBits)
		}
		if err := checkNetlist(tg.nl, p, 0); err != nil {
			t.Fatalf("%s: %v", tg.name, err)
		}
	}
}

// TestCheckRejectsOverBudget pins the failure path: under a degraded
// parameter set the bench netlist blows the sigma floor and checkNetlist
// surfaces the noise error instead of proceeding to plan verification.
func TestCheckRejectsOverBudget(t *testing.T) {
	degraded := *params.Test()
	degraded.Name = "degraded"
	degraded.LWEStdev = math.Exp2(-8)
	err := checkNetlist(experiments.ImbalancedNetlist(), &degraded, 0)
	if err == nil || !strings.Contains(err.Error(), "over budget") {
		t.Fatalf("degraded bench netlist: err = %v, want over-budget failure", err)
	}
}

// TestLoadKeys: a key directory round-trips through the loader, and a
// cloud.key whose shape does not match its parameters — here the retired
// full-complex format, N points per polynomial, and the retired
// key-switching key of one sample per row — is refused with the typed
// regenerate-keys error before anything bootstraps on it.
func TestLoadKeys(t *testing.T) {
	kp, err := core.GenerateKeysSeeded(params.Test(), []byte("load-keys"))
	if err != nil {
		t.Fatal(err)
	}
	write := func(ck *boot.CloudKey) string {
		dir := t.TempDir()
		if err := writeGob(filepath.Join(dir, "secret.key"), kp.Secret); err != nil {
			t.Fatal(err)
		}
		if err := writeGob(filepath.Join(dir, "cloud.key"), ck); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	loaded, err := loadKeys(write(kp.Cloud))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Cloud.BK) != len(kp.Cloud.BK) {
		t.Fatalf("loaded %d BK entries, wrote %d", len(loaded.Cloud.BK), len(kp.Cloud.BK))
	}

	old := *kp.Cloud
	old.BK = append([]*tgsw.HalfSample(nil), kp.Cloud.BK...)
	g := *old.BK[0]
	g.Rows = nil
	for range old.BK[0].Rows {
		n := old.Params.PolyDegree
		g.Rows = append(g.Rows, []*torus.HalfPoly{torus.NewHalfPoly(n), torus.NewHalfPoly(n)})
	}
	old.BK[0] = &g
	if _, err := loadKeys(write(&old)); !errors.Is(err, boot.ErrOldKeyFormat) {
		t.Fatalf("old-format key: err = %v, want ErrOldKeyFormat", err)
	}
	type perRowSwitchKey struct {
		NIn, NOut, Levels, BaseLog int
		Rows                       [][][]*lwe.Sample
	}
	ks := kp.Cloud.KS
	perRow := &perRowSwitchKey{NIn: ks.NIn, NOut: ks.NOut, Levels: ks.Levels, BaseLog: ks.BaseLog,
		Rows: [][][]*lwe.Sample{{{lwe.NewSample(ks.NOut)}}}}
	dir := write(kp.Cloud)
	if err := writeGob(filepath.Join(dir, "cloud.key"), struct {
		Params *params.GateParams
		BK     []*tgsw.HalfSample
		KS     *perRowSwitchKey
	}{kp.Cloud.Params, kp.Cloud.BK, perRow}); err != nil {
		t.Fatal(err)
	}
	if _, err := loadKeys(dir); !errors.Is(err, boot.ErrOldKeyFormat) {
		t.Fatalf("per-row key-switching key: err = %v, want ErrOldKeyFormat", err)
	}
	short := *kp.Cloud
	short.BK = short.BK[:1]
	if _, err := loadKeys(write(&short)); err == nil {
		t.Fatal("truncated bootstrapping key loaded")
	}
}
