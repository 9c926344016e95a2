package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RCUPin enforces the snapshot pin/unpin discipline of the RCU read
// side (internal/service/rcu.go): a function that acquires a snapshot
// pin — by calling pin/pinSum directly or any //ring:pins function —
// must release it (unpin) on every path before returning, unless the
// function is itself marked //ring:pins (batch-scoped pinning: the
// obligation transfers to the caller). While a pin may be held, no
// blocking operation is allowed: mutex Lock/RLock, channel operations,
// select, sync.WaitGroup.Wait, time.Sleep, or a fmt/log call. A batch
// that blocks with its pins held keeps answering from the snapshots it
// pinned, so after the block it may answer from a snapshot that an
// edit, already returned to its caller, has replaced.
//
// The walk is branch-aware, not lexical: each arm of an if/switch is
// analyzed with the state it inherits, and the states are merged
// conservatively (possibly-pinned wins), so a pin in one switch case
// does not poison its siblings. A `defer ...unpin...` discharges the
// release obligation on every exit path, including panics.
var RCUPin = &Analyzer{
	Name: "rcupin",
	Doc:  "checks that RCU snapshot pins are released on all paths and never held across blocking operations",
	Run:  runRCUPin,
}

func runRCUPin(pass *Pass) error {
	for _, file := range pass.Pkg.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			note := pass.Notes.Funcs[fd]
			w := &pinWalker{pass: pass, pins: note != nil && note.Pins}
			exit := w.stmts(fd.Body.List, pinState{})
			if exit.pinned && !w.pins && !w.deferredUnpin {
				pass.Reportf(fd.Name.Pos(),
					"%s can exit with an RCU snapshot pinned (no unpin on some path; mark //ring:pins if the caller releases)",
					fd.Name.Name)
			}
		}
	}
	return nil
}

// pinState is the abstract state at one program point.
type pinState struct {
	pinned bool // a snapshot pin may be held here
}

func merge(a, b pinState) pinState { return pinState{pinned: a.pinned || b.pinned} }

type pinWalker struct {
	pass          *Pass
	pins          bool // enclosing function is //ring:pins
	deferredUnpin bool
}

// stmts walks a statement sequence and returns the exit state.
func (w *pinWalker) stmts(list []ast.Stmt, st pinState) pinState {
	for _, s := range list {
		st = w.stmt(s, st)
	}
	return st
}

func (w *pinWalker) stmt(s ast.Stmt, st pinState) pinState {
	switch n := s.(type) {
	case *ast.ExprStmt:
		return w.expr(n.X, st)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			st = w.expr(e, st)
		}
		for _, e := range n.Lhs {
			st = w.expr(e, st)
		}
		return st
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = w.expr(v, st)
					}
				}
			}
		}
		return st
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			st = w.expr(e, st)
		}
		if st.pinned && !w.pins && !w.deferredUnpin {
			w.pass.Reportf(n.Pos(), "return with RCU snapshot pinned (no unpin on this path)")
		}
		return st
	case *ast.DeferStmt:
		if containsUnpin(n.Call) {
			w.deferredUnpin = true
			return st
		}
		// Evaluate the arguments (they run now); the call itself runs
		// at exit, outside this walk's scope.
		for _, a := range n.Call.Args {
			st = w.expr(a, st)
		}
		return st
	case *ast.IfStmt:
		if n.Init != nil {
			st = w.stmt(n.Init, st)
		}
		st = w.expr(n.Cond, st)
		thenSt := w.stmts(n.Body.List, st)
		elseSt := st
		if n.Else != nil {
			elseSt = w.stmt(n.Else, st)
		}
		return merge(thenSt, elseSt)
	case *ast.BlockStmt:
		return w.stmts(n.List, st)
	case *ast.SwitchStmt:
		if n.Init != nil {
			st = w.stmt(n.Init, st)
		}
		if n.Tag != nil {
			st = w.expr(n.Tag, st)
		}
		out := st // no-default fallthrough state
		for _, c := range n.Body.List {
			cc := c.(*ast.CaseClause)
			caseSt := st
			for _, e := range cc.List {
				caseSt = w.expr(e, caseSt)
			}
			out = merge(out, w.stmts(cc.Body, caseSt))
		}
		return out
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			st = w.stmt(n.Init, st)
		}
		st = w.stmt(n.Assign, st)
		out := st
		for _, c := range n.Body.List {
			cc := c.(*ast.CaseClause)
			out = merge(out, w.stmts(cc.Body, st))
		}
		return out
	case *ast.SelectStmt:
		if st.pinned {
			w.pass.Reportf(n.Pos(), "select while RCU snapshot pinned (may answer from a replaced snapshot)")
		}
		out := st
		for _, c := range n.Body.List {
			cc := c.(*ast.CommClause)
			commSt := st
			if cc.Comm != nil {
				commSt = w.stmt(cc.Comm, st)
			}
			out = merge(out, w.stmts(cc.Body, commSt))
		}
		return out
	case *ast.ForStmt:
		if n.Init != nil {
			st = w.stmt(n.Init, st)
		}
		if n.Cond != nil {
			st = w.expr(n.Cond, st)
		}
		body := w.stmts(n.Body.List, st)
		if n.Post != nil {
			body = w.stmt(n.Post, body)
		}
		return merge(st, body)
	case *ast.RangeStmt:
		if st.pinned {
			if t := w.pass.Pkg.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					w.pass.Reportf(n.Pos(), "range over channel while RCU snapshot pinned (may answer from a replaced snapshot)")
				}
			}
		}
		st = w.expr(n.X, st)
		return merge(st, w.stmts(n.Body.List, st))
	case *ast.SendStmt:
		if st.pinned {
			w.pass.Reportf(n.Pos(), "channel send while RCU snapshot pinned (may answer from a replaced snapshot)")
		}
		st = w.expr(n.Value, st)
		return st
	case *ast.GoStmt:
		for _, a := range n.Call.Args {
			st = w.expr(a, st)
		}
		return st
	case *ast.LabeledStmt:
		return w.stmt(n.Stmt, st)
	case *ast.IncDecStmt:
		return w.expr(n.X, st)
	}
	return st
}

// expr walks one expression: reports blocking operations that happen
// while pinned, then applies pin/unpin transitions caused by calls.
func (w *pinWalker) expr(e ast.Expr, st pinState) pinState {
	switch n := e.(type) {
	case *ast.CallExpr:
		st = w.expr(n.Fun, st)
		for _, a := range n.Args {
			st = w.expr(a, st)
		}
		return w.call(n, st)
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && st.pinned {
			w.pass.Reportf(n.Pos(), "channel receive while RCU snapshot pinned (may answer from a replaced snapshot)")
		}
		return w.expr(n.X, st)
	case *ast.BinaryExpr:
		st = w.expr(n.X, st)
		return w.expr(n.Y, st)
	case *ast.ParenExpr:
		return w.expr(n.X, st)
	case *ast.SelectorExpr:
		return w.expr(n.X, st)
	case *ast.IndexExpr:
		st = w.expr(n.X, st)
		return w.expr(n.Index, st)
	case *ast.SliceExpr:
		st = w.expr(n.X, st)
		for _, idx := range []ast.Expr{n.Low, n.High, n.Max} {
			if idx != nil {
				st = w.expr(idx, st)
			}
		}
		return st
	case *ast.StarExpr:
		return w.expr(n.X, st)
	case *ast.TypeAssertExpr:
		return w.expr(n.X, st)
	case *ast.CompositeLit:
		for _, el := range n.Elts {
			st = w.expr(el, st)
		}
		return st
	case *ast.KeyValueExpr:
		return w.expr(n.Value, st)
	}
	return st
}

// call classifies one call: blocking check first (against the state
// before the call), then the pin/unpin transition.
func (w *pinWalker) call(call *ast.CallExpr, st pinState) pinState {
	name := calleeName(call)

	if st.pinned {
		if what := w.blocking(call, name); what != "" {
			w.pass.Reportf(call.Pos(), "%s while RCU snapshot pinned (may answer from a replaced snapshot)", what)
		}
	}

	switch name {
	case "pin", "Pin", "pinSum", "PinSum":
		st.pinned = true
		return st
	case "unpin", "Unpin":
		st.pinned = false
		return st
	}
	// Static call to a //ring:pins function pins on the caller's
	// behalf (batch-scoped acquisition).
	if fn := staticCalleeOf(w.pass.Pkg, call); fn != nil {
		if fact := w.pass.FuncFactOf(fn); fact != nil && fact.Pins {
			st.pinned = true
		}
	}
	return st
}

// blocking reports the kind of blocking operation call is, or "".
func (w *pinWalker) blocking(call *ast.CallExpr, name string) string {
	switch name {
	case "Lock", "RLock":
		return "mutex " + name
	case "Wait":
		return "Wait"
	case "Sleep":
		return "Sleep"
	}
	if fn := staticCalleeOf(w.pass.Pkg, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "log":
			return fn.Pkg().Path() + "." + fn.Name()
		}
	}
	return ""
}

// calleeName is the bare selector or identifier name of the call.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// containsUnpin reports whether the deferred call releases pins —
// either directly (defer rd.unpin()) or inside a deferred closure.
func containsUnpin(call *ast.CallExpr) bool {
	switch name := calleeName(call); name {
	case "unpin", "Unpin":
		return true
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				switch calleeName(c) {
				case "unpin", "Unpin":
					found = true
				}
			}
			return !found
		})
		return found
	}
	return false
}

// staticCalleeOf resolves a call to its static *types.Func, or nil
// for dynamic calls. Mirrors scanner.staticCallee without the
// method-value bookkeeping.
func staticCalleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
					return nil
				}
			}
			return fn
		}
		if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
