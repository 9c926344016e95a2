package analysis

import (
	"go/ast"
	"go/types"
)

// MutGuard enforces the shard mutation discipline: a write to a
// struct field marked //ring:guarded <mu> is only legal when the
// writer demonstrably holds the named sibling mutex — either the
// enclosing function is marked //ring:locked <mu> (caller holds it),
// or a lexically preceding <recv>.<mu>.Lock() call appears in the same
// function body. Calls to //ring:locked functions are checked the same
// way at every call site.
//
// The check is intentionally lexical and intra-procedural: it will
// not prove lock ownership across goroutines or through aliasing, but
// it catches the realistic regression — a new code path that touches
// registry bookkeeping, session maps, or shootdown lists without taking
// the mutex first — and the -race CI runs backstop what it cannot see.
var MutGuard = &Analyzer{
	Name: "mutguard",
	Doc:  "checks that writes to //ring:guarded fields happen under the named mutex",
	Run:  runMutGuard,
}

func runMutGuard(pass *Pass) error {
	for _, file := range pass.Pkg.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := &guardWalker{pass: pass, decl: fd}
			if note := pass.Notes.Funcs[fd]; note != nil {
				g.locked = note.Locked
			}
			g.collectLocks(fd.Body)
			g.check(fd.Body)
		}
	}
	return nil
}

type guardWalker struct {
	pass   *Pass
	decl   *ast.FuncDecl
	locked string // //ring:locked marker of the enclosing function

	// lockPos collects the positions of <x>.<mu>.Lock()/RLock() calls
	// in the body, per mutex field name.
	lockPos map[string][]ast.Node
}

// collectLocks records every mutex acquisition in the body.
func (g *guardWalker) collectLocks(body *ast.BlockStmt) {
	g.lockPos = map[string][]ast.Node{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		// The receiver of Lock: x.mu -> field name "mu".
		if muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			g.lockPos[muSel.Sel.Name] = append(g.lockPos[muSel.Sel.Name], call)
		} else if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			g.lockPos[id.Name] = append(g.lockPos[id.Name], call)
		}
		return true
	})
}

// holds reports whether the mutex named mu is demonstrably held at
// pos: the function is //ring:locked mu, or some mu.Lock() precedes
// pos lexically.
func (g *guardWalker) holds(mu string, pos ast.Node) bool {
	if g.locked == mu {
		return true
	}
	for _, lock := range g.lockPos[mu] {
		if lock.Pos() < pos.Pos() {
			return true
		}
	}
	return false
}

func (g *guardWalker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				g.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			g.checkWrite(node.X)
		case *ast.CallExpr:
			g.checkLockedCall(node)
		}
		return true
	})
}

// checkWrite flags a write to a guarded field done without the mutex.
// Index and dereference wrappers are unwrapped so s.sessions[k] = x
// counts as a write to s.sessions.
func (g *guardWalker) checkWrite(lhs ast.Expr) {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		case *ast.ParenExpr:
			lhs = e.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	v := g.fieldOf(sel)
	if v == nil {
		return
	}
	mu, guarded := g.pass.Notes.Guarded[v]
	if !guarded {
		return
	}
	if !g.holds(mu, sel) {
		g.pass.Reportf(sel.Pos(),
			"write to guarded field %s without holding %s (take %s.Lock() first, or mark the function //ring:locked %s)",
			v.Name(), mu, mu, mu)
	}
}

// checkLockedCall flags a call to a //ring:locked function made
// without the mutex the callee requires.
func (g *guardWalker) checkLockedCall(call *ast.CallExpr) {
	fn := (&scanner{pkg: g.pass.Pkg}).staticCallee(ast.Unparen(call.Fun))
	if fn == nil {
		return
	}
	fact := g.pass.Facts[fn.Origin()]
	if fact == nil || fact.Locked == "" {
		return
	}
	if !g.holds(fact.Locked, call) {
		g.pass.Reportf(call.Pos(),
			"call to %s requires holding %s (//ring:locked %s)",
			fn.Name(), fact.Locked, fact.Locked)
	}
}

// fieldOf resolves a selector to the struct field it names, or nil.
func (g *guardWalker) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := g.pass.Pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}
