package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// cachedModule loads a module once for every test that needs it.
type cachedModule struct {
	once sync.Once
	m    *Module
	err  error
}

func (c *cachedModule) load(t *testing.T, root string) *Module {
	t.Helper()
	c.once.Do(func() { c.m, c.err = LoadModule(root) })
	if c.err != nil {
		t.Fatalf("loading module at %s: %v", root, c.err)
	}
	return c.m
}

var fixture, repository cachedModule

func loadFixture(t *testing.T) *Module {
	t.Helper()
	return fixture.load(t, filepath.Join("testdata", "plants"))
}

// loadRepository type-checks the repository module itself.
func loadRepository(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	m := repository.load(t, filepath.Join("..", ".."))
	if m.Path != "pytfhe" {
		t.Fatalf("module path = %q, want pytfhe", m.Path)
	}
	return m
}

func findingsFor(findings []Finding, analyzer string) []Finding {
	var out []Finding
	for _, f := range findings {
		if f.Analyzer == analyzer {
			out = append(out, f)
		}
	}
	return out
}

// requireFindings checks that analyzer reports exactly one finding on the
// fixture per want entry, each written "<file>: <message substring>".
func requireFindings(t *testing.T, analyzer string, want ...string) {
	t.Helper()
	got := findingsFor(Run(loadFixture(t), Analyzers()), analyzer)
	if len(got) != len(want) {
		t.Fatalf("%s findings = %d, want %d:\n%v", analyzer, len(got), len(want), got)
	}
	for _, w := range want {
		file, sub, _ := strings.Cut(w, ": ")
		found := false
		for _, f := range got {
			found = found || filepath.Base(f.Pos.Filename) == file && strings.Contains(f.Message, sub)
		}
		if !found {
			t.Errorf("no %s finding in %s mentioning %q:\n%v", analyzer, file, sub, got)
		}
	}
}

func TestFixtureModuleLoads(t *testing.T) {
	m := loadFixture(t)
	if m.Path != "plants" {
		t.Fatalf("module path = %q, want plants", m.Path)
	}
	for _, want := range []string{"engine", "jitter", "core", "node", "service"} {
		if m.Packages["plants/"+want] == nil {
			t.Errorf("package plants/%s not loaded", want)
		}
	}
}

// TestInsecureRandFindings: the crypto root imports math/rand directly,
// and through jitter transitively. The service package, on no crypto path,
// imports it cleanly.
func TestInsecureRandFindings(t *testing.T) {
	requireFindings(t, "insecure-rand", "engine.go: math/rand", "jitter.go: math/rand")
}

// TestDiscardedErrorFindings: a bare call, a blank assignment and a blank
// error slot in the worker's install path. The service package is not
// error-critical.
func TestDiscardedErrorFindings(t *testing.T) {
	requireFindings(t, "discarded-error",
		"node.go: result of sh.Validate",
		"node.go: error value assigned to _",
		"node.go: error result of newRuntime assigned to _")
}

// TestIgnoreDirectiveSuppresses: the ignore above the worker's Close
// silences that discard and only that one.
func TestIgnoreDirectiveSuppresses(t *testing.T) {
	for _, f := range findingsFor(Run(loadFixture(t), Analyzers()), "discarded-error") {
		if strings.Contains(f.Message, "Close") {
			t.Fatalf("suppressed finding leaked through: %v", f)
		}
	}
}

// TestIgnoreDirectiveFindings: an ignore naming a misspelt analyzer, and one
// that covers no finding, are reported.
func TestIgnoreDirectiveFindings(t *testing.T) {
	requireFindings(t, "ignore-directive",
		"node.go: lint:ignore names discarded-errors, which is not an analyzer",
		"node.go: lint:ignore discarded-error suppresses no finding")
}

// TestDirectiveFindings: a directive with an unknown name, one on the wrong
// kind of declaration and one on no declaration are reported.
func TestDirectiveFindings(t *testing.T) {
	requireFindings(t, "pytfhe-directive",
		"directives.go: unknown directive //pytfhe:bootstrap",
		"directives.go: //pytfhe:runstate goes on a type declaration, not a function or method declaration",
		"directives.go: //pytfhe:bootstraps is not in the doc comment of a declaration")
}

// TestLockedBootstrapFindings: Shared.worker executing a slice under s.mu,
// Planned.Run holding p.mu across Submit, and a worker running a shard
// level on Shared under its shard-table lock, in a return and in a var
// declaration. The slice evaluated after Unlock is clean.
func TestLockedBootstrapFindings(t *testing.T) {
	requireFindings(t, "locked-bootstrap",
		"core.go: in worker: core.Runtime.Exec",
		"core.go: in Run: core.Shared.Submit",
		"node.go: in step: core.Shared.Run",
		"node.go: in stepVar: core.Shared.Run")
}

// TestLeakedCiphertextFindings: RunSequential's error path without Put, the
// same leak from a var declaration, and Interp.Run's operand check after
// taking a slot. RunLevels puts back on its error path and Runtime.Fill
// publishes its slot: both clean.
func TestLeakedCiphertextFindings(t *testing.T) {
	requireFindings(t, "leaked-ciphertext",
		"core.go: ciphertext out acquired from the recycler is neither published, returned, nor put back (leaked on return in RunSequential)",
		"core.go: (leaked on return in RunVar)",
		"core.go: (leaked on return in Run)")
}

// TestUnsyncedExecStateFindings: four run-state touches from the service
// layer, then a goroutine filling a captured runtime's slot. The goroutine
// handed its runtime as a parameter, and RunLevels' workers sharing the
// captured Arena, are clean.
func TestUnsyncedExecStateFindings(t *testing.T) {
	requireFindings(t, "unsynced-exec-state",
		"service.go: core.State.Values touched",
		"service.go: core.Arena.Get touched",
		"service.go: core.Arena.Put touched",
		"service.go: core.Runtime.Fill touched",
		"node.go: goroutine calls core.Runtime.Fill on rt captured")
}

// TestRepositoryIsClean is the acceptance gate: the suite must exit clean
// on the repository itself (any genuine finding gets fixed, not ignored).
func TestRepositoryIsClean(t *testing.T) {
	for _, f := range Run(loadRepository(t), Analyzers()) {
		t.Errorf("%s", f)
	}
}

// TestAnalyzerTargetsExist: every directive an analyzer reads marks at
// least one declaration in the repository, so no rule watches nothing.
func TestAnalyzerTargetsExist(t *testing.T) {
	m := loadRepository(t)
	for name := range directives {
		if len(m.marks[name]) == 0 {
			t.Errorf("no declaration carries //pytfhe:%s", name)
		}
	}
}
