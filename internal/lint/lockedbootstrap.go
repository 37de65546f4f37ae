package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// expensiveCalls are the methods that run gate bootstraps — each a
// millisecond or more — keyed "<package under internal/>.<receiver
// type>.<method>": the gate engine's evaluations, exec.Batcher (the one
// evaluator every executor drives), the plan interpreter and runtime that
// feed it, a shard level, and a whole plan run on the slice scheduler.
var expensiveCalls = map[string]bool{
	"tfhe/gate.Engine.Binary":      true,
	"tfhe/gate.Engine.Mux":         true,
	"tfhe/gate.Engine.LUT":         true,
	"tfhe/gate.Engine.BinaryBatch": true,
	"tfhe/gate.Engine.OpBatch":     true,
	"exec.Batcher.Do":              true,
	"exec.Batcher.Flush":           true,
	"plan.Interp.Run":              true,
	"plan.Runtime.Exec":            true,
	"shard.Runtime.RunLevel":       true,
	"backend.Shared.Submit":        true,
}

// lockedBootstrap reports calls that run gate bootstraps while a
// sync.Mutex/RWMutex is held. A bootstrap takes milliseconds; running one
// under a lock serializes every other worker behind it — the
// serialization the slice scheduler exists to avoid — so locks must only
// guard bookkeeping. Function literals are analyzed as their own bodies:
// a goroutine launched under a lock does not itself hold the lock.
type lockedBootstrap struct{}

func (*lockedBootstrap) Name() string { return "locked-bootstrap" }
func (*lockedBootstrap) Doc() string {
	return "gate evaluation, plan/shard execution or plan submission while holding a mutex"
}

// Match applies everywhere: the expensive calls are identified by type.
func (*lockedBootstrap) Match(string) bool { return true }

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
		w.scanExpr(st.X)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` extends the critical section to the end of
		// the function, so it must not decrement; the deferred call itself
		// runs after the body and is not scanned.
	case *ast.GoStmt:
		// The goroutine body runs without this function's locks; its
		// FuncLit is analyzed separately by funcBodies.
		for _, arg := range st.Call.Args {
			w.scanExpr(arg)
		}
	case *ast.BlockStmt:
		w.walkStmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.scanExpr(st.Cond)
		entry := w.depth
		w.walkStmt(st.Body)
		w.depth = entry
		if st.Else != nil {
			w.walkStmt(st.Else)
			w.depth = entry
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Cond != nil {
			w.scanExpr(st.Cond)
		}
		entry := w.depth
		w.walkStmt(st.Body)
		w.depth = entry
	case *ast.RangeStmt:
		w.scanExpr(st.X)
		entry := w.depth
		w.walkStmt(st.Body)
		w.depth = entry
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Tag != nil {
			w.scanExpr(st.Tag)
		}
		w.walkCases(st.Body)
	case *ast.TypeSwitchStmt:
		w.walkCases(st.Body)
	case *ast.SelectStmt:
		w.walkCases(st.Body)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.scanExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.scanExpr(e)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		// no calls of interest
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	case *ast.SendStmt:
		w.scanExpr(st.Value)
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

// scanExpr reports expensive TFHE calls inside e when a lock is held.
// Function literals are skipped: they execute later, outside this critical
// section, and are checked as independent bodies.
func (w *lockWalker) scanExpr(e ast.Expr) {
	if w.depth == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		key := methodKey(w.pkg.Info, sel)
		if !expensiveCalls[key] {
			return true
		}
		w.findings = append(w.findings, Finding{
			Analyzer: w.analyzer,
			Pos:      w.m.Fset.Position(call.Pos()),
			Message: "in " + w.fn + ": " + key +
				" runs gate bootstraps while holding a mutex; move it outside the critical section",
		})
		return true
	})
}

// methodKey names the method sel calls as "<package under
// internal/>.<receiver type>.<method>", or "" when sel is not a method of
// a named type under internal/.
func methodKey(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	fn := s.Obj().(*types.Func)
	n := namedType(fn.Type().(*types.Signature).Recv().Type())
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	_, pkg, ok := strings.Cut(n.Obj().Pkg().Path(), "internal/")
	if !ok {
		return ""
	}
	return pkg + "." + n.Obj().Name() + "." + fn.Name()
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
