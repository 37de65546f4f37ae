package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"pytfhe/internal/models"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		values []float64
		p      float64
		want   float64
	}{
		{ten, 50, 5}, {ten, 90, 9}, {ten, 91, 10}, {ten, 100, 10}, {ten, 1, 1},
		{[]float64{7}, 90, 7},          // one sample: every percentile is that sample
		{[]float64{3, 1, 2}, 90, 3},    // fewer than ten: p90 is the slowest
		{[]float64{1, 2, 3, 4}, 50, 2}, // nearest rank does not interpolate
	} {
		if got := percentile(c.values, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.values, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// The spread rule is Python's statistics.quantiles(values, n=4); these are its
// outputs for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2.5, 3.5, 1.5, 10, 4.5, 2.0, 3.0, 3.2, 2.9, 3.1}, 2.375, 3.75},
	} {
		q1, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (5.5 between the quartiles over a median of 5.5)", got)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	spans := []span{
		{Name: "op", Start: at(0), End: at(100), Parent: -1},
		{Name: "encrypt", Start: at(0), End: at(10), Parent: 0},
		{Name: "evaluate", Start: at(10), End: at(80), Parent: 0},
		{Name: "overlaps evaluate", Start: at(70), End: at(90), Parent: 0},
		{Name: "grandchild", Start: at(20), End: at(50), Parent: 2},
	}
	want := []time.Duration{10, 10, 40, 20, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i]*time.Millisecond {
			t.Errorf("self time of %q = %v, want %v", spans[i].Name, got, want[i]*time.Millisecond)
		}
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var rec *recorder
	id := rec.begin("x", -1, 0, 0)
	rec.end(id)
	ran := false
	rec.wrap("y", id, 0, 0, func() { ran = true })
	if !ran || rec.count() != 0 || rec.durations("y") != nil {
		t.Fatalf("nil recorder: ran=%v count=%d", ran, rec.count())
	}
}

func TestVerdictRule(t *testing.T) {
	bound := 0.10
	lower := metricSpec{Name: "op_s_p50", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "gates_per_s", Better: "higher", Bound: &bound}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: &bound}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	wide := []float64{0.5, 0.8, 1, 1.2, 1.5}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady(1), steady(1), "ok"},
		{"slower within bound", lower, steady(1), steady(1.09), "ok"},
		{"slower beyond bound", lower, steady(1), steady(1.12), "regressed"},
		{"faster", lower, steady(1), steady(0.5), "ok"},
		{"throughput down beyond bound", higher, steady(100), steady(88), "regressed"},
		{"throughput up", higher, steady(100), steady(150), "ok"},
		{"spread wider than bound", lower, steady(1), wide, "unresolved"},
		{"set-up is judged on medians alone", setup, steady(1), wide, "ok"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFixedPackRoundTrip(t *testing.T) {
	raw := []int{0, 1, 255, 256, 32767, -1, -256, -32768}
	if got := unpackFixed(packFixed(raw)); len(got) != len(raw) {
		t.Fatalf("round trip changed length: %v", got)
	} else {
		for i := range raw {
			if got[i] != raw[i] {
				t.Errorf("element %d: %d, want %d", i, got[i], raw[i])
			}
		}
	}
}

// A zero image leaves only the biases: ReLU(conv bias) pooled and fed to the
// linear layer, which is easy to work out by hand.
func TestMNISTReferenceOnZeroImage(t *testing.T) {
	spec := models.MNISTS().Scaled(8)
	w := spec.GenWeights()
	logits, below, above := mnistReference(spec, make([]int, 64))
	act := math.Max(w.ConvB[0], 0)
	for c, got := range logits {
		want := w.LinB[c]
		for i := 0; i < spec.FlatSize(); i++ {
			want += w.LinW[c*spec.FlatSize()+i] * act
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("logit %d = %v, want %v", c, got, want)
		}
		if below[c] < above[c] || above[c] <= 0 {
			t.Errorf("logit %d: tolerance [-%v, +%v] is not the floor-biased interval", c, below[c], above[c])
		}
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// BENCHMARK.json has limits a run is refused for breaking; check the ones
// that are easy to break while editing the metric lists.
func TestSpecWithinContract(t *testing.T) {
	spec, err := loadSpec(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != nil {
			t.Errorf("per-layer metric %q: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestQuickSmoke drives the declared command on every workload, untraced and
// traced, on the smoke path: Test parameters, MNIST_S at image 10, 1 s windows.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries and runs eight short benchmarks")
	}
	root := repoRoot(t)
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, declared := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			cmd := exec.Command("bash", "bench/run.sh", "--workload", w.Name, "--seed", "3", "--seconds", "1",
				"--trace", []string{"0", "1"}[trace], "--quick")
			cmd.Dir = root
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s%s", w.Name, trace, err, stdout, stderr.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var keys map[string]json.RawMessage
			var res resultLine
			last := lines[len(lines)-1]
			if err := json.Unmarshal(last, &keys); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %s", w.Name, trace, last)
			}
			if err := json.Unmarshal(last, &res); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || res.Correct == nil || res.Attempted == nil || res.Failed == nil {
				t.Fatalf("%s trace %d: result keys %v", w.Name, trace, keys)
			}
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, *res.Correct, *res.Attempted, *res.Failed, stdout)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil || got.Unit != m.Unit:
					t.Errorf("%s trace %d: metric %q missing or in the wrong unit", w.Name, trace, m.Name)
				case trace == 0 && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %q = %v, must never be 0", w.Name, m.Name, *got.Value)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(root, "bench", "out", "tmp-*")); len(left) != 0 {
		t.Errorf("temp dirs left behind: %v", left)
	}
}

// In a directory that holds only BENCHMARK.json and bench/, the command has
// nothing to build from: it must fail without printing a result.
func TestBareDirectoryFails(t *testing.T) {
	root := repoRoot(t)
	bare := t.TempDir()
	if err := os.MkdirAll(filepath.Join(bare, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"BENCHMARK.json", "bench/run.sh", "bench/go.mod", "bench/main.go"} {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(bare, f), data, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", "hamming128_local", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = bare
	stdout, err := cmd.Output()
	if err == nil {
		t.Fatalf("command succeeded in a bare directory:\n%s", stdout)
	}
	if bytes.Contains(stdout, []byte(`"metrics"`)) {
		t.Errorf("a result was printed:\n%s", stdout)
	}
}
