package lint

import (
	"go/types"
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
	return fixture.load(t, filepath.Join("testdata", "badmod"))
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
	if m.Path != "badmod" {
		t.Fatalf("module path = %q, want badmod", m.Path)
	}
	for _, want := range []string{
		"badmod/internal/tfhe/gate",
		"badmod/internal/mathutil",
		"badmod/internal/exec",
		"badmod/internal/plan",
		"badmod/internal/shard",
		"badmod/internal/backend",
		"badmod/internal/cluster",
		"badmod/internal/serve",
	} {
		if m.Packages[want] == nil {
			t.Errorf("package %s not loaded", want)
		}
	}
}

// TestInsecureRandFindings: the gate engine imports math/rand directly,
// and through mathutil transitively.
func TestInsecureRandFindings(t *testing.T) {
	requireFindings(t, "insecure-rand", "gate.go: math/rand", "mathutil.go: math/rand")
}

// TestDiscardedErrorFindings: a bare call, a blank assignment and a blank
// error slot in the cluster worker's install path.
func TestDiscardedErrorFindings(t *testing.T) {
	requireFindings(t, "discarded-error",
		"worker.go: result of sh.Validate",
		"worker.go: error value assigned to _",
		"worker.go: error result of newRuntime assigned to _")
}

// TestIgnoreDirectiveSuppresses: the directive above the worker's Close
// silences that discard and only that one.
func TestIgnoreDirectiveSuppresses(t *testing.T) {
	for _, f := range findingsFor(Run(loadFixture(t), Analyzers()), "discarded-error") {
		if strings.Contains(f.Message, "Close") {
			t.Fatalf("suppressed finding leaked through: %v", f)
		}
	}
}

// TestLockedBootstrapFindings: Shared.worker executing a slice under s.mu,
// Planned.Run holding p.mu across Submit, and a worker step under its
// shard-table lock. The slice evaluated after Unlock is clean.
func TestLockedBootstrapFindings(t *testing.T) {
	requireFindings(t, "locked-bootstrap",
		"shared.go: in worker: plan.Runtime.Exec",
		"shared.go: in Run: backend.Shared.Submit",
		"worker.go: in step: shard.Runtime.RunLevel")
}

// TestLeakedCiphertextFindings: RunSequential's error path without Put
// (exec.Pool) and Interp.Run's operand check after taking a slot
// (exec.Arena). RunLevels and RunLevelsBarriered put back and are clean.
func TestLeakedCiphertextFindings(t *testing.T) {
	requireFindings(t, "leaked-ciphertext",
		"exec.go: ciphertext out", "replay.go: ciphertext out")
}

// TestUnsyncedExecStateFindings: four run-state touches from the service
// layer, then the captured Pool (Get and Put) of a RunLevels whose
// workers claim their own outputs, and a captured shard runtime's
// SetRemote. RunLevelsBarriered, which uses its Pool only around the
// barrier, is clean.
func TestUnsyncedExecStateFindings(t *testing.T) {
	requireFindings(t, "unsynced-exec-state",
		"server.go: exec.State.Values touched",
		"server.go: exec.Pool.Get touched",
		"server.go: exec.Pool.Put touched",
		"server.go: shard.Runtime.SetRemote touched",
		"exec.go: Get on single-owner exec.Pool mem captured",
		"exec.go: Put on single-owner exec.Pool mem captured",
		"worker.go: SetRemote on the remote-input slots of shard.Runtime rt captured")
}

// TestRepositoryIsClean is the acceptance gate: the suite must exit clean
// on the repository itself (any genuine finding gets fixed, not ignored).
func TestRepositoryIsClean(t *testing.T) {
	for _, f := range Run(loadRepository(t), Analyzers()) {
		t.Errorf("%s", f)
	}
}

// TestAnalyzerTargetsExist pins every type and method the analyzers key on
// to a declaration in the repository, so a rename cannot leave an analyzer
// watching code that no longer exists.
func TestAnalyzerTargetsExist(t *testing.T) {
	m := loadRepository(t)
	lookup := func(pkg, name string) types.Object {
		p := m.Packages[m.Path+"/internal/"+pkg]
		if p == nil {
			return nil
		}
		return p.Types.Scope().Lookup(name)
	}
	for _, st := range execStateTypes {
		if lookup(st.pkg, st.name) == nil {
			t.Errorf("run-state type %s.%s does not exist", st.pkg, st.name)
		}
	}
	for key := range expensiveCalls {
		typ, method := key[:strings.LastIndex(key, ".")], key[strings.LastIndex(key, ".")+1:]
		pkg, name := typ[:strings.LastIndex(typ, ".")], typ[strings.LastIndex(typ, ".")+1:]
		obj := lookup(pkg, name)
		if obj == nil {
			t.Errorf("%s: type %s.%s does not exist", key, pkg, name)
			continue
		}
		if fn, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), false, obj.Pkg(), method); fn == nil {
			t.Errorf("%s: %s.%s has no method %s", key, pkg, name, method)
		}
	}
}
