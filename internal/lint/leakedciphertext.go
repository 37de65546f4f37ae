package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// leakedCiphertext verifies acquire/release balance on the execution
// core's ciphertext recycler, exec.Arena: a sample obtained
// with Get must, on every path, either be published into a value table
// (assigned through an index or selector expression), returned to the
// caller, or handed back with Put before the function returns. An early
// `return err` that forgets the Put leaks one ciphertext per failing gate
// — exactly the imbalance that turns a long MNIST run into an OOM.
//
// The walker is branch-aware but deliberately optimistic: a release on any
// branch counts as a release, so it only reports paths where no release
// can be proven anywhere. That keeps it free of false positives on the
// real drivers while still catching the forgotten Put.
type leakedCiphertext struct{}

func (*leakedCiphertext) Name() string { return "leaked-ciphertext" }
func (*leakedCiphertext) Doc() string {
	return "exec.Arena Get without Put or publish on some return path"
}

// Match applies everywhere: the recycler is identified by type.
func (*leakedCiphertext) Match(string) bool { return true }

func (a *leakedCiphertext) Check(m *Module, pkg *Package) []Finding {
	var findings []Finding
	for _, f := range pkg.Files {
		for _, fb := range funcBodies(f) {
			w := &leakWalker{
				m:        m,
				pkg:      pkg,
				analyzer: a.Name(),
				fn:       fb.name,
				held:     map[*types.Var]token.Pos{},
			}
			w.walkStmts(fb.body.List)
			// Anything still held when the function body ends fell off the
			// end of a scope unreleased.
			for v, pos := range w.held {
				w.report(v, pos, "still held at end of "+fb.name)
			}
			findings = append(findings, w.findings...)
		}
	}
	return findings
}

// leakWalker tracks recycler-acquired variables through one function body.
type leakWalker struct {
	m        *Module
	pkg      *Package
	analyzer string
	fn       string
	held     map[*types.Var]token.Pos // acquired, not yet released/published
	findings []Finding
}

func (w *leakWalker) report(v *types.Var, acquired token.Pos, what string) {
	w.findings = append(w.findings, Finding{
		Analyzer: w.analyzer,
		Pos:      w.m.Fset.Position(acquired),
		Message: "ciphertext " + v.Name() + " acquired from the recycler is neither published, returned, nor put back (" +
			what + ")",
	})
}

func (w *leakWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *leakWalker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		w.handleAssign(st)
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			w.dischargeCallArgs(call)
		}
	case *ast.DeferStmt:
		w.dischargeCallArgs(st.Call) // defer mem.Put(x) releases x
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.dischargeUses(e) // returning x transfers ownership out
		}
		for v, pos := range w.held {
			w.report(v, pos, "leaked on return in "+w.fn)
			delete(w.held, v) // one report per acquisition
		}
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.walkStmt(st.Body)
		if st.Else != nil {
			w.walkStmt(st.Else)
		}
	case *ast.BlockStmt:
		w.walkStmts(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.walkStmt(st.Body)
	case *ast.RangeStmt:
		w.walkStmt(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.walkCaseBodies(st.Body)
	case *ast.TypeSwitchStmt:
		w.walkCaseBodies(st.Body)
	case *ast.SelectStmt:
		w.walkCaseBodies(st.Body)
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	case *ast.GoStmt:
		w.dischargeCallArgs(st.Call) // ownership moves into the goroutine
	case *ast.SendStmt:
		w.dischargeUses(st.Value) // ownership moves through the channel
	}
}

func (w *leakWalker) walkCaseBodies(body *ast.BlockStmt) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			w.walkStmts(cc.Body)
		case *ast.CommClause:
			w.walkStmts(cc.Body)
		}
	}
}

// handleAssign tracks acquisitions (x := mem.Get()) and publications
// (values[id] = x, s.field = x, y = x).
func (w *leakWalker) handleAssign(st *ast.AssignStmt) {
	if len(st.Rhs) == 1 && w.isArenaGet(st.Rhs[0]) && len(st.Lhs) == 1 {
		if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if v := w.varOf(id); v != nil {
				w.held[v] = st.Rhs[0].Pos()
				return
			}
		}
		// Assigned straight into an index/selector expression: published.
		return
	}
	// A held variable is published only when it is *stored*: appearing as
	// a whole right-hand side (values[id] = out, alias := out), inside a
	// composite literal, or as an append argument. Merely passing it to a
	// call (joined, err := bt.Do(op, out, a, b, c)) keeps it held — the
	// callee writes into it and hands it straight back.
	for _, e := range st.Rhs {
		w.dischargeStores(e)
	}
}

// dischargeStores releases variables that e stores somewhere: a direct
// identifier, composite-literal elements, or append arguments.
func (w *leakWalker) dischargeStores(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		if v := w.varOf(x); v != nil {
			delete(w.held, v)
		}
	case *ast.UnaryExpr:
		w.dischargeStores(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.dischargeUses(el)
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range x.Args {
				w.dischargeUses(arg)
			}
		}
	}
}

// dischargeCallArgs releases held variables passed to a Put call; passing
// a held ciphertext to any other call (bt.Do writes into it) keeps it held.
func (w *leakWalker) dischargeCallArgs(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || !w.isArenaExpr(sel.X) {
		return
	}
	for _, arg := range call.Args {
		w.dischargeUses(arg)
	}
}

// dischargeUses removes from the held set every variable referenced in e.
func (w *leakWalker) dischargeUses(e ast.Expr) {
	if e == nil || len(w.held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := w.varOf(id); v != nil {
				delete(w.held, v)
			}
		}
		return true
	})
}

// isArenaGet reports whether e is a Get() call on a recycler.
func (w *leakWalker) isArenaGet(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Get" && w.isArenaExpr(sel.X)
}

// isArenaExpr reports whether e is an exec.Arena (or a pointer to one),
// wherever it is used.
func (w *leakWalker) isArenaExpr(e ast.Expr) bool {
	return isType(w.pkg.Info.TypeOf(e), "internal/exec", "Arena")
}

// varOf resolves an identifier to its *types.Var, or nil.
func (w *leakWalker) varOf(id *ast.Ident) *types.Var {
	if obj, ok := w.pkg.Info.Defs[id]; ok {
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	}
	if obj, ok := w.pkg.Info.Uses[id]; ok {
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	}
	return nil
}
