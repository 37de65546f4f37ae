// Package lint is the PyTFHE static-analysis suite. It machine-checks the
// two correctness-critical layers of the repository that go vet does not
// cover: the crypto/concurrency Go code (secure randomness, error
// discipline, lock hygiene around bootstrapping, ciphertext-pool balance,
// exec run-state ownership) and — through internal/circuit and
// internal/asm — the assembled gate netlists themselves. Each analyzer
// targets a hazard in code that exists: DESIGN.md §8 names, for every
// one, the bug planted in the tree that makes it fire.
//
// The suite is pure standard library (go/parser, go/ast, go/types, with
// module-internal imports resolved by walking the module and everything
// else through the stdlib source importer), so it runs anywhere the repo
// builds, with no external tooling.
//
// A finding can be suppressed with a directive comment on the offending
// line or the line above it:
//
//	//lint:ignore <analyzer-name> <reason>
//
// The reason is mandatory; an ignore without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Analyzer checks one property over a package.
type Analyzer interface {
	// Name is the short identifier used in reports and ignore directives.
	Name() string
	// Doc is a one-line description of what the analyzer reports.
	Doc() string
	// Match reports whether the analyzer applies to the package at the
	// given import path.
	Match(pkgPath string) bool
	// Check analyzes one package of the module and returns its findings.
	Check(m *Module, pkg *Package) []Finding
}

// Analyzers returns the full suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		&insecureRand{},
		&discardedError{},
		&lockedBootstrap{},
		&leakedCiphertext{},
		&unsyncedExecState{},
	}
}

// Run applies every analyzer to every matching package of the module and
// returns the surviving findings sorted by position. Findings on lines
// carrying a valid ignore directive for that analyzer are dropped.
func Run(m *Module, analyzers []Analyzer) []Finding {
	paths := make([]string, 0, len(m.Packages))
	for p := range m.Packages {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var findings []Finding
	for _, path := range paths {
		pkg := m.Packages[path]
		ignores := collectIgnores(m.Fset, pkg)
		findings = append(findings, ignores.malformed...)
		for _, a := range analyzers {
			if !a.Match(path) {
				continue
			}
			for _, f := range a.Check(m, pkg) {
				if !ignores.covers(a.Name(), f.Pos) {
					findings = append(findings, f)
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// ignoreSet records //lint:ignore directives by file, line and analyzer.
type ignoreSet struct {
	byLine    map[string]map[int]map[string]bool // file -> line -> analyzer
	malformed []Finding
}

const ignorePrefix = "//lint:ignore "

func collectIgnores(fset *token.FileSet, pkg *Package) *ignoreSet {
	s := &ignoreSet{byLine: map[string]map[int]map[string]bool{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Finding{
						Analyzer: "ignore-directive",
						Pos:      pos,
						Message:  "lint:ignore directive needs an analyzer name and a reason",
					})
					continue
				}
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					s.byLine[pos.Filename] = lines
				}
				// The directive covers its own line (trailing comment) and
				// the next line (comment above the statement).
				for _, ln := range [2]int{pos.Line, pos.Line + 1} {
					if lines[ln] == nil {
						lines[ln] = map[string]bool{}
					}
					lines[ln][fields[0]] = true
				}
			}
		}
	}
	return s
}

func (s *ignoreSet) covers(analyzer string, pos token.Position) bool {
	return s.byLine[pos.Filename][pos.Line][analyzer]
}

// ---- shared helpers used by several analyzers ----

var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is exactly the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// namedType returns the named type underlying t, unwrapping one level of
// pointer, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isType reports whether t (or *t) is the named type name declared in a
// package whose import path ends in dir (e.g. "internal/exec").
func isType(t types.Type, dir, name string) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Name() == name && pathHasDir(n.Obj().Pkg().Path(), dir)
}

// pathHasDir reports whether the import path contains dir as a complete
// path element sequence (e.g. "internal/backend" matches
// "pytfhe/internal/backend" but not "pytfhe/internal/backendx").
func pathHasDir(path, dir string) bool {
	return path == dir ||
		strings.HasSuffix(path, "/"+dir) ||
		strings.Contains(path, "/"+dir+"/") ||
		strings.HasPrefix(path, dir+"/")
}

// funcBodies yields every function body in the file — declarations and
// function literals — each exactly once, paired with a display name.
func funcBodies(f *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcBody{name: fn.Name.Name, body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{name: "func literal", body: fn.Body})
		}
		return true
	})
	return out
}

type funcBody struct {
	name string
	body *ast.BlockStmt
}
