package lint

import (
	"go/ast"
	"go/types"
)

// lockedBootstrap reports calls of a //pytfhe:bootstraps function — one
// that runs gate bootstraps — while a sync.Mutex/RWMutex is held. A
// bootstrap takes milliseconds; running one under a lock serializes every
// other worker behind it — the serialization the slice scheduler exists to
// avoid — so locks must only guard bookkeeping. Function literals are
// analyzed as their own bodies: a goroutine launched under a lock does not
// itself hold the lock.
type lockedBootstrap struct{}

func (*lockedBootstrap) Name() string { return "locked-bootstrap" }
func (*lockedBootstrap) Doc() string {
	return "call of a //pytfhe:bootstraps function while holding a mutex"
}

func (a *lockedBootstrap) Check(m *Module, pkg *Package) []Finding {
	var findings []Finding
	for _, f := range pkg.Files {
		for _, fb := range funcBodies(f) {
			w := &lockWalker{m: m, pkg: pkg, analyzer: a.Name(), fn: fb.name}
			w.walkStmts(fb.body.List)
			findings = append(findings, w.findings...)
		}
	}
	return findings
}

// lockWalker tracks mutex hold depth through one function body.
type lockWalker struct {
	m        *Module
	pkg      *Package
	analyzer string
	fn       string
	depth    int // currently-held lock count (deferred unlocks never decrement)
	findings []Finding
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			switch mutexCallKind(w.pkg.Info, call) {
			case lockCall:
				w.depth++
				return
			case unlockCall:
				if w.depth > 0 {
					w.depth--
				}
				return
			}
		}
		w.scan(st.X)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` extends the critical section to the end of
		// the function, so it must not decrement; the deferred call itself
		// runs after the body and is not scanned.
	case *ast.GoStmt:
		// The goroutine body runs without this function's locks; its
		// FuncLit is analyzed separately by funcBodies.
		for _, arg := range st.Call.Args {
			w.scan(arg)
		}
	case *ast.BlockStmt:
		w.walkStmts(st.List)
	case *ast.IfStmt:
		w.walkStmt(st.Init)
		w.scan(st.Cond)
		entry := w.depth
		w.walkStmt(st.Body)
		w.depth = entry
		if st.Else != nil {
			w.walkStmt(st.Else)
			w.depth = entry
		}
	case *ast.ForStmt:
		w.walkStmt(st.Init)
		w.scan(st.Cond)
		entry := w.depth
		w.walkStmt(st.Body)
		w.depth = entry
	case *ast.RangeStmt:
		w.scan(st.X)
		entry := w.depth
		w.walkStmt(st.Body)
		w.depth = entry
	case *ast.SwitchStmt:
		w.walkStmt(st.Init)
		w.scan(st.Tag)
		w.walkCases(st.Body)
	case *ast.TypeSwitchStmt:
		w.walkCases(st.Body)
	case *ast.SelectStmt:
		w.walkCases(st.Body)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.scan(e)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.scan(e)
		}
	case *ast.DeclStmt:
		w.scan(st.Decl) // var x = f()
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	case *ast.SendStmt:
		w.scan(st.Value)
	}
}

func (w *lockWalker) walkCases(body *ast.BlockStmt) {
	entry := w.depth
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			w.walkStmts(cc.Body)
		case *ast.CommClause:
			w.walkStmts(cc.Body)
		}
		w.depth = entry
	}
}

// scan reports bootstrapping calls inside n when a lock is held.
// Function literals are skipped: they execute later, outside this critical
// section, and are checked as independent bodies.
func (w *lockWalker) scan(n ast.Node) {
	if w.depth == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(w.pkg.Info, call)
		if !w.m.marked("bootstraps", fn) {
			return true
		}
		w.findings = append(w.findings, Finding{
			Analyzer: w.analyzer,
			Pos:      w.m.Fset.Position(call.Pos()),
			Message: "in " + w.fn + ": " + funcName(fn) +
				" runs gate bootstraps while holding a mutex; move it outside the critical section",
		})
		return true
	})
}

type mutexCall int

const (
	notMutexCall mutexCall = iota
	lockCall
	unlockCall
)

// mutexCallKind classifies a call as Lock/RLock or Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex (directly or via an embedded/field selector).
func mutexCallKind(info *types.Info, call *ast.CallExpr) mutexCall {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return notMutexCall
	}
	var kind mutexCall
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockCall
	case "Unlock", "RUnlock":
		kind = unlockCall
	default:
		return notMutexCall
	}
	t := info.TypeOf(sel.X)
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return notMutexCall
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return kind
	}
	return notMutexCall
}
