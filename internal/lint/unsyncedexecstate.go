package lint

import (
	"go/ast"
	"go/types"
)

// unsyncedExecState enforces the ownership discipline around the execution
// core's run state: the value tables, the recycler and the plan runtimes a
// slice scheduler evaluates over, whose slots are filled only between
// levels — never while the scheduler's workers run. Two rules keep that
// machine-checked:
//
//  1. Layering: only a //pytfhe:execlayer package may touch a
//     //pytfhe:runstate type at all. A service- or CLI-layer package
//     reading a value table or taking from the recycler reaches around
//     every invariant the executors maintain (liveness-bound slots,
//     per-dimension recycling, level ordering).
//
//  2. Goroutine capture: a function literal launched with `go` must not
//     call a //pytfhe:singlewriter method on a value it captured from the
//     enclosing scope; that silently turns its one writer into two.
//     Handing the value in through the literal's parameter list, or
//     declaring a fresh one inside the goroutine, is fine.
type unsyncedExecState struct{}

func (*unsyncedExecState) Name() string { return "unsynced-exec-state" }
func (*unsyncedExecState) Doc() string {
	return "run state touched outside the executor layers or written from a goroutine that captured it"
}

func (a *unsyncedExecState) Check(m *Module, pkg *Package) []Finding {
	var findings []Finding
	sanctioned := m.marked("execlayer", pkg.Types)
	for _, f := range pkg.Files {
		if !sanctioned {
			findings = append(findings, a.checkLayering(m, pkg, f)...)
		}
		findings = append(findings, a.checkGoroutines(m, pkg, f)...)
	}
	return findings
}

// checkLayering reports every field or method selection on a run-state
// type in a package outside the executor layers.
func (a *unsyncedExecState) checkLayering(m *Module, pkg *Package, f *ast.File) []Finding {
	var findings []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pkg.Info.Selections[sel]
		if !ok {
			return true // package qualifier, not a field/method selection
		}
		named := namedType(selection.Recv())
		if named == nil || !m.marked("runstate", named.Obj()) {
			return true
		}
		obj := named.Obj()
		findings = append(findings, Finding{
			Analyzer: a.Name(),
			Pos:      m.Fset.Position(sel.Sel.Pos()),
			Message: obj.Pkg().Name() + "." + obj.Name() + "." + sel.Sel.Name + " touched from " + pkg.Path +
				": only the executor layers may hold exec run state",
		})
		return true
	})
	return findings
}

// checkGoroutines reports single-writer calls on a captured receiver
// inside go-launched function literals.
func (a *unsyncedExecState) checkGoroutines(m *Module, pkg *Package, f *ast.File) []Finding {
	var findings []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true // `go method()` transfers nothing implicitly
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			fn := callee(pkg.Info, call)
			if !ok || !m.marked("singlewriter", fn) {
				return true
			}
			root := rootIdent(sel.X)
			if root == nil {
				return true
			}
			v, ok := pkg.Info.ObjectOf(root).(*types.Var)
			if !ok || !v.Pos().IsValid() {
				return true
			}
			if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
				return true // parameter of, or declared inside, the literal
			}
			findings = append(findings, Finding{
				Analyzer: a.Name(),
				Pos:      m.Fset.Position(sel.Sel.Pos()),
				Message: "goroutine calls " + funcName(fn) + " on " + root.Name +
					" captured from the enclosing scope; pass it through the func literal's parameters instead",
			})
			return true
		})
		return true
	})
	return findings
}

// rootIdent unwraps selector/index/paren chains to the base identifier, or
// nil when the chain bottoms out in something else (a call, a literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
