// Package lint is the PyTFHE static-analysis suite. It machine-checks the
// crypto/concurrency Go code of the repository that go vet does not cover:
// secure randomness, error discipline, lock hygiene around bootstrapping,
// ciphertext-recycler balance and run-state ownership. Each analyzer
// targets a hazard in code that exists: DESIGN.md §8 names, for every
// one, the bug planted in the tree that makes it fire.
//
// The analyzers name no package, type or method of the code they check.
// They find their targets through //pytfhe: directives in the doc comments
// of the real declarations (see directives), so a rename or a move carries
// the mark with it:
//
//	// Eval evaluates one gate.
//	//
//	//pytfhe:bootstraps
//	func (e *Evaluator) Eval(...)
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
// The reason is mandatory. An ignore without one, one naming no analyzer of
// the suite, and one that suppresses no finding are findings themselves.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
	// Check analyzes one package of the module and returns its findings;
	// it returns none for a package the property does not apply to.
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

// Run applies the analyzers to every package of the module and returns the
// surviving findings, with the module's directive errors, sorted by
// position. A finding on a line that an ignore for its analyzer covers is
// dropped. An ignore that names no analyzer of the suite is reported, and
// so is one that names an analyzer in analyzers but suppresses none of its
// findings.
func Run(m *Module, analyzers []Analyzer) []Finding {
	known, ran := map[string]bool{}, map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	for _, a := range analyzers {
		ran[a.Name()] = true
	}
	paths := make([]string, 0, len(m.Packages))
	for p := range m.Packages {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var findings []Finding
	for _, path := range paths {
		pkg := m.Packages[path]
		findings = append(findings, pkg.malformed...)
		used := map[*ignore]bool{}
		for _, a := range analyzers {
			for _, f := range a.Check(m, pkg) {
				if ig := pkg.ignoreFor(a.Name(), f.Pos); ig != nil {
					used[ig] = true
				} else {
					findings = append(findings, f)
				}
			}
		}
		for _, ig := range pkg.ignores {
			msg := ""
			switch {
			case !known[ig.analyzer]:
				msg = "lint:ignore names " + ig.analyzer + ", which is not an analyzer of the suite"
			case ran[ig.analyzer] && !used[ig]:
				msg = "lint:ignore " + ig.analyzer + " suppresses no finding; delete it"
			default:
				continue
			}
			findings = append(findings, Finding{Analyzer: ignoreAnalyzer, Pos: ig.pos, Message: msg})
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

// ---- shared helpers used by several analyzers ----

var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is exactly the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// namedType returns the generic origin of the named type underlying t,
// unwrapping one level of pointer, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// callee returns the function or method that call names, or nil when it
// calls a func value, converts or calls a builtin.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

// funcName renders fn as "pkg.Func" or "pkg.Type.Method", the package by
// its name.
func funcName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		name = namedType(recv.Type()).Obj().Name() + "." + name
	}
	return fn.Pkg().Name() + "." + name
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
