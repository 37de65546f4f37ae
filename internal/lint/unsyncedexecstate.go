package lint

import (
	"go/ast"
	"go/types"
)

// unsyncedExecState enforces the ownership discipline around the execution
// core's run state. exec.Pool is single-owner (RunLevels touches it only
// between barriers), exec.Arena carries its own lock, exec.State's value
// table is written under the drivers' ordering, and a shard.Runtime's
// remote-input slots belong to the cluster worker's serve loop. Two rules
// keep that machine-checked:
//
//  1. Layering: only the executor layers (internal/exec, internal/backend,
//     internal/plan, internal/cluster, internal/shard) may touch
//     exec.State, exec.Pool, exec.Arena or shard.Runtime at all. A
//     service- or CLI-layer package reading State.Values or calling
//     Pool.Get reaches around every invariant the executors maintain
//     (refcounted release, per-dimension recycling, level ordering).
//
//  2. Goroutine capture: a function literal launched with `go` must not
//     call Get/Put on an exec.Pool — or SetRemote on a shard.Runtime — it
//     captured from the enclosing scope; that silently turns one owner
//     into two. Using it outside the goroutines, as RunLevels does before
//     and after each level's barrier, handing it in through the literal's
//     parameter list, or declaring a fresh one inside the goroutine is
//     fine.
type unsyncedExecState struct{}

func (*unsyncedExecState) Name() string { return "unsynced-exec-state" }
func (*unsyncedExecState) Doc() string {
	return "exec run state touched outside the executor layers or via a goroutine-captured pool"
}

// Match applies everywhere: rule 1 gates on the package path itself and
// rule 2 is a per-function property.
func (*unsyncedExecState) Match(string) bool { return true }

// execStateDirs are the sanctioned owners of exec run state.
var execStateDirs = [...]string{
	"internal/exec", "internal/backend", "internal/plan", "internal/cluster",
	"internal/shard",
}

func inExecLayer(path string) bool {
	for _, d := range execStateDirs {
		if pathHasDir(path, d) {
			return true
		}
	}
	return false
}

func (a *unsyncedExecState) Check(m *Module, pkg *Package) []Finding {
	var findings []Finding
	sanctioned := inExecLayer(pkg.Path)
	for _, f := range pkg.Files {
		if !sanctioned {
			findings = append(findings, a.checkLayering(m, pkg, f)...)
		}
		findings = append(findings, a.checkGoroutines(m, pkg, f)...)
	}
	return findings
}

// checkLayering reports every field or method selection on an exec
// run-state type in a package outside the executor layers.
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
		name, ok := execStateType(selection.Recv())
		if !ok {
			return true
		}
		findings = append(findings, Finding{
			Analyzer: a.Name(),
			Pos:      m.Fset.Position(sel.Sel.Pos()),
			Message: name + "." + sel.Sel.Name + " touched from " + pkg.Path +
				": only the executor layers may hold exec run state",
		})
		return true
	})
	return findings
}

// checkGoroutines reports Get/Put calls on a captured exec.Pool — and
// SetRemote calls on a captured shard.Runtime — inside go-launched function
// literals.
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
			if !ok {
				return true
			}
			var what string
			t := pkg.Info.TypeOf(sel.X)
			switch {
			case (sel.Sel.Name == "Get" || sel.Sel.Name == "Put") && isType(t, "internal/exec", "Pool"):
				what = "single-owner exec.Pool"
			case sel.Sel.Name == "SetRemote" && isType(t, "internal/shard", "Runtime"):
				what = "the remote-input slots of shard.Runtime"
			default:
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
				Message: "goroutine calls " + sel.Sel.Name + " on " + what + " " + root.Name +
					" captured from the enclosing scope; pass it through the func literal's parameters instead",
			})
			return true
		})
		return true
	})
	return findings
}

// execStateTypes are the run-state types rule 1 guards, by package under
// internal/.
var execStateTypes = [...]struct{ pkg, name string }{
	{"exec", "State"}, {"exec", "Pool"}, {"exec", "Arena"}, {"shard", "Runtime"},
}

// execStateType reports whether t (or *t) is one of the run-state types,
// returning its package-qualified display name.
func execStateType(t types.Type) (string, bool) {
	for _, st := range execStateTypes {
		if isType(t, "internal/"+st.pkg, st.name) {
			return st.pkg + "." + st.name, true
		}
	}
	return "", false
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
