package lint

import (
	"go/ast"
	"go/types"
)

// discardedError reports discarded error returns in the
// //pytfhe:errorcritical packages, where a silently dropped error means a
// corrupted program binary, a wrong homomorphic result or a wedged cluster:
// bare call statements whose results include an error, and assignments of
// an error result to the blank identifier. Deferred and go-routine calls
// are exempt (there is no local control flow to act on the error), as are
// the fmt print family.
type discardedError struct{}

func (*discardedError) Name() string { return "discarded-error" }
func (*discardedError) Doc() string {
	return "error return silently discarded in a //pytfhe:errorcritical package"
}

func (a *discardedError) Check(m *Module, pkg *Package) []Finding {
	if !m.marked("errorcritical", pkg.Types) {
		return nil
	}
	var findings []Finding
	report := func(n ast.Node, msg string) {
		findings = append(findings, Finding{
			Analyzer: a.Name(),
			Pos:      m.Fset.Position(n.Pos()),
			Message:  msg,
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, ok := st.X.(*ast.CallExpr)
				if !ok || !callReturnsError(pkg.Info, call) || isPrintCall(pkg.Info, call) {
					return true
				}
				report(st, "result of "+callName(call)+" includes an error that is discarded")
			case *ast.AssignStmt:
				checkBlankErrorAssign(pkg.Info, st, report)
			}
			return true
		})
	}
	return findings
}

// checkBlankErrorAssign flags `_ = f()` and `v, _ := g()` where the blank
// slot holds an error.
func checkBlankErrorAssign(info *types.Info, st *ast.AssignStmt, report func(ast.Node, string)) {
	// Multi-value form: one call on the right, its tuple spread over LHS.
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := info.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(st.Lhs) {
			return
		}
		for i, lhs := range st.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				report(lhs, "error result of "+callName(call)+" assigned to _")
			}
		}
		return
	}
	// Parallel form: `_ = expr` per position.
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) || !isBlank(lhs) {
			continue
		}
		if isErrorType(info.TypeOf(st.Rhs[i])) {
			report(lhs, "error value assigned to _")
		}
	}
}

// callReturnsError reports whether the call's result type is error or a
// tuple containing error.
func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	switch t := info.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
	default:
		return isErrorType(t)
	}
	return false
}

// isPrintCall reports whether the call targets the fmt print family, whose
// error returns are conventionally ignored.
func isPrintCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "fmt" {
		return false
	}
	switch sel.Sel.Name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callName renders a short display name for a call expression.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
