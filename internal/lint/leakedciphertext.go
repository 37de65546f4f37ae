package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// leakedCiphertext verifies acquire/release balance on the ciphertext
// recycler: a sample obtained from a //pytfhe:acquire call must, on every
// path, either be published into a value table (assigned through an index
// or selector expression), returned to the caller, or handed to a
// //pytfhe:release call before the function returns. An early
// `return err` that forgets the release leaks one ciphertext per failing
// gate — exactly the imbalance that turns a long MNIST run into an OOM.
//
// The walker is branch-aware but deliberately optimistic: a release on any
// branch counts as a release, so it only reports paths where no release
// can be proven anywhere. That keeps it free of false positives on the
// real drivers while still catching the forgotten release.
type leakedCiphertext struct{}

func (*leakedCiphertext) Name() string { return "leaked-ciphertext" }
func (*leakedCiphertext) Doc() string {
	return "//pytfhe:acquire result neither released nor published on some return path"
}

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
		w.handleAssign(st.Lhs, st.Rhs)
	case *ast.DeclStmt:
		for _, spec := range st.Decl.(*ast.GenDecl).Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == 1 {
				w.handleAssign([]ast.Expr{vs.Names[0]}, vs.Values) // var x = acquire()
			}
		}
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			w.dischargeCallArgs(call)
		}
	case *ast.DeferStmt:
		w.dischargeCallArgs(st.Call) // defer release(x) releases x
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.dischargeUses(e) // returning x transfers ownership out
		}
		for v, pos := range w.held {
			w.report(v, pos, "leaked on return in "+w.fn)
			delete(w.held, v) // one report per acquisition
		}
	case *ast.IfStmt:
		w.walkStmt(st.Init)
		w.walkStmt(st.Body)
		if st.Else != nil {
			w.walkStmt(st.Else)
		}
	case *ast.BlockStmt:
		w.walkStmts(st.List)
	case *ast.ForStmt:
		w.walkStmt(st.Init)
		w.walkStmt(st.Body)
	case *ast.RangeStmt:
		w.walkStmt(st.Body)
	case *ast.SwitchStmt:
		w.walkStmt(st.Init)
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

// handleAssign tracks acquisitions (x := acquire()) and publications
// (values[id] = x, s.field = x, y = x) of an assignment or var spec.
func (w *leakWalker) handleAssign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && w.isAcquire(rhs[0]) && len(lhs) == 1 {
		if id, ok := lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if v := w.varOf(id); v != nil {
				w.held[v] = rhs[0].Pos()
				return
			}
		}
		// Assigned straight into an index/selector expression: published.
		return
	}
	// A held variable is published only when it is *stored*: appearing as
	// a whole right-hand side (values[id] = out, alias := out), inside a
	// composite literal, or as an append argument. Merely passing it to a
	// call (err := eval(op, out, a, b)) keeps it held — the callee writes
	// into it and hands it straight back.
	for _, e := range rhs {
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

// dischargeCallArgs releases held variables passed to a release call;
// passing a held ciphertext to any other call (an evaluation writes into
// it) keeps it held.
func (w *leakWalker) dischargeCallArgs(call *ast.CallExpr) {
	if !w.m.marked("release", callee(w.pkg.Info, call)) {
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

// isAcquire reports whether e is a call of a //pytfhe:acquire function.
func (w *leakWalker) isAcquire(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	return w.m.marked("acquire", callee(w.pkg.Info, call))
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
