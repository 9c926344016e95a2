package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ---- Facts ----

// A Ban is one heap-allocating construct found in a function body.
type Ban struct {
	Pos  token.Pos
	What string
}

// A CallSite is one static module-internal call.
type CallSite struct {
	Callee *types.Func // the declared function: Origin of an instance
	Pos    token.Pos
}

// FuncFact is everything the scan records about one function.
type FuncFact struct {
	Hot    bool
	Locked string
	Bans   []Ban
	Calls  []CallSite
}

// ---- Scan ----

// Scan walks every function of pkg once and records its facts in
// facts: the heap-allocating constructs it contains (after
// //ring:allow filtering), its static module-internal callees, and its
// annotation markers. The result feeds every analyzer.
func Scan(pkg *Package, notes *Notes, facts map[*types.Func]*FuncFact) {
	for _, file := range pkg.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fact := &FuncFact{}
			if note := notes.Funcs[fd]; note != nil {
				fact.Hot, fact.Locked = note.Hot, note.Locked
			}
			s := &scanner{pkg: pkg, notes: notes, fact: fact, decl: fd}
			s.scan()
			facts[obj] = fact
		}
	}
}

// scanner walks one function body.
type scanner struct {
	pkg   *Package
	notes *Notes
	fact  *FuncFact
	decl  *ast.FuncDecl
	// calledSelectors tracks method selectors seen in call position,
	// so methodValue doesn't flag ordinary method calls. ast.Inspect is
	// pre-order, so a CallExpr is always visited before its Fun.
	calledSelectors map[*ast.SelectorExpr]bool
}

// ban records a banned construct unless the line carries ring:allow.
func (s *scanner) ban(pos token.Pos, what string) {
	if _, allowed := s.notes.Allowed[lineKey(s.pkg.Fset.Position(pos))]; allowed {
		return
	}
	s.fact.Bans = append(s.fact.Bans, Ban{Pos: pos, What: what})
}

func (s *scanner) scan() {
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			s.call(node)
		case *ast.FuncLit:
			if s.captures(node) {
				s.ban(node.Pos(), "capturing closure (allocates)")
			}
		case *ast.SelectorExpr:
			s.methodValue(node)
		case *ast.CompositeLit:
			t := s.pkg.Info.TypeOf(node)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Map:
				s.ban(node.Pos(), "map literal (allocates)")
			case *types.Slice:
				s.ban(node.Pos(), "slice literal (allocates)")
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD {
				tv := s.pkg.Info.Types[node]
				if tv.Value == nil && tv.Type != nil && isString(tv.Type) {
					s.ban(node.Pos(), "string concatenation (allocates)")
				}
			}
		case *ast.GoStmt:
			s.ban(node.Pos(), "go statement (spawns a goroutine)")
		case *ast.AssignStmt:
			s.assign(node)
		case *ast.ValueSpec:
			if node.Type != nil {
				dst := s.pkg.Info.TypeOf(node.Type)
				for _, v := range node.Values {
					s.ifaceConv(dst, v)
				}
			}
		case *ast.ReturnStmt:
			s.returns(node)
		case *ast.SendStmt:
			if ct := s.pkg.Info.TypeOf(node.Chan); ct != nil {
				if ch, ok := ct.Underlying().(*types.Chan); ok {
					s.ifaceConv(ch.Elem(), node.Value)
				}
			}
		}
		return true
	})
}

// call classifies one call expression: conversion, builtin, banned
// package, or static module-internal callee.
func (s *scanner) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		// In call position the selector is never a method value, even
		// when the call is dynamic (interface method).
		s.markCalled(sel)
	}

	// Type conversion?
	if tv, ok := s.pkg.Info.Types[fun]; ok && tv.IsType() {
		s.conversion(tv.Type, call)
		return
	}

	// Builtin?
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := s.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				s.ban(call.Pos(), "append may grow its backing array (allocates)")
			case "make":
				s.ban(call.Pos(), "make (allocates)")
			case "new":
				s.ban(call.Pos(), "new (allocates)")
			}
			return
		}
	}

	if fn := s.calledFunc(fun); fn != nil && growsSlice(fn) {
		s.ban(call.Pos(), fmt.Sprintf("calls %s: append may grow its backing array (allocates)", types.ExprString(fun)))
		return
	}

	fn := s.staticCallee(fun)
	if fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "log":
			s.ban(call.Pos(), fmt.Sprintf("calls %s.%s (formats and allocates)", fn.Pkg().Path(), fn.Name()))
			return
		}
		if s.inModule(fn.Pkg().Path()) {
			s.fact.Calls = append(s.fact.Calls, CallSite{Callee: fn.Origin(), Pos: call.Pos()})
		}
	}

	// Argument conversions into interface parameters, and the
	// argument slice of a non-spread variadic call.
	sig, ok := s.pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && call.Ellipsis == token.NoPos {
		fixed := params.Len() - 1
		if len(call.Args) > fixed {
			// fmt/log calls were already banned above; everything else
			// materializes an argument slice.
			if fn == nil || (fn.Pkg() != nil && fn.Pkg().Path() != "fmt" && fn.Pkg().Path() != "log") {
				s.ban(call.Pos(), "variadic call materializes its argument slice (allocates)")
			}
			if elem, ok := params.At(fixed).Type().(*types.Slice); ok {
				for _, arg := range call.Args[fixed:] {
					s.ifaceConv(elem.Elem(), arg)
				}
			}
		}
		for i := 0; i < fixed && i < len(call.Args); i++ {
			s.ifaceConv(params.At(i).Type(), call.Args[i])
		}
		return
	}
	for i := 0; i < len(call.Args) && i < params.Len(); i++ {
		s.ifaceConv(params.At(i).Type(), call.Args[i])
	}
}

// conversion flags allocating type conversions: string <-> byte/rune
// slices, and conversions to interface types.
func (s *scanner) conversion(dst types.Type, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	src := s.pkg.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	du, su := dst.Underlying(), src.Underlying()
	if isString(du) && isByteOrRuneSlice(su) || isByteOrRuneSlice(du) && isString(su) {
		// Constant-folded conversions don't allocate.
		if s.pkg.Info.Types[call].Value == nil {
			s.ban(call.Pos(), fmt.Sprintf("conversion %s -> %s copies (allocates)", src, dst))
		}
		return
	}
	s.ifaceConv(dst, call.Args[0])
}

// ifaceConv flags an implicit or explicit conversion of a non-pointer
// concrete value into an interface: the boxed copy escapes to the
// heap. Pointer-shaped values (pointers, channels, maps, funcs,
// unsafe.Pointer) and zero-size values are stored directly in the
// interface word and do not allocate.
func (s *scanner) ifaceConv(dst types.Type, src ast.Expr) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := s.pkg.Info.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	st := tv.Type
	if st == nil || isUntypedNil(st) {
		return
	}
	if _, isIface := st.Underlying().(*types.Interface); isIface {
		return // interface-to-interface carries the existing box
	}
	if isPointerShaped(st.Underlying()) {
		return
	}
	if s.pkg.Sizes != nil && s.pkg.Sizes.Sizeof(st) == 0 {
		return // zero-size values share the runtime's zero base
	}
	s.ban(src.Pos(), fmt.Sprintf("interface conversion of non-pointer %s (allocates)", st))
}

// assign checks interface conversions in plain assignments (the
// destination's declared type is only interesting for tok '=';
// ':=' gives the destination the source's own type).
func (s *scanner) assign(a *ast.AssignStmt) {
	if a.Tok != token.ASSIGN {
		return
	}
	if len(a.Lhs) == len(a.Rhs) {
		for i := range a.Lhs {
			s.ifaceConv(s.pkg.Info.TypeOf(a.Lhs[i]), a.Rhs[i])
		}
		return
	}
	// x, y = f(): component-wise against the call's tuple.
	if len(a.Rhs) == 1 {
		if tuple, ok := s.pkg.Info.TypeOf(a.Rhs[0]).(*types.Tuple); ok {
			for i := 0; i < tuple.Len() && i < len(a.Lhs); i++ {
				dst := s.pkg.Info.TypeOf(a.Lhs[i])
				if dst == nil {
					continue
				}
				if _, isIface := dst.Underlying().(*types.Interface); !isIface {
					continue
				}
				src := tuple.At(i).Type()
				if _, isIface := src.Underlying().(*types.Interface); isIface {
					continue
				}
				if !isPointerShaped(src.Underlying()) {
					s.ban(a.Rhs[0].Pos(), fmt.Sprintf("interface conversion of non-pointer %s (allocates)", src))
				}
			}
		}
	}
}

// returns checks interface conversions against the enclosing
// function's result types.
func (s *scanner) returns(r *ast.ReturnStmt) {
	obj, ok := s.pkg.Info.Defs[s.decl.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if len(r.Results) != results.Len() {
		return // tuple-forwarding return; conversions impossible
	}
	for i, expr := range r.Results {
		s.ifaceConv(results.At(i).Type(), expr)
	}
}

// methodValue flags a method used as a value (x.M without a call):
// the bound-method closure allocates.
func (s *scanner) methodValue(sel *ast.SelectorExpr) {
	selection, ok := s.pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	// A selector in call position was already marked by call() (the
	// CallExpr is visited first); what remains is a genuine bound
	// method value.
	if s.calledSelectors[sel] {
		return
	}
	s.ban(sel.Pos(), fmt.Sprintf("method value %s (allocates a closure)", sel.Sel.Name))
}

// captures reports whether lit references a variable declared outside
// itself but inside the enclosing function (a true capture; uses of
// package-level objects are static).
func (s *scanner) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := s.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() == token.NoPos {
			return true
		}
		// Declared inside the enclosing declaration but outside the literal?
		if v.Pos() >= s.decl.Pos() && v.Pos() < s.decl.End() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			found = true
		}
		return true
	})
	return found
}

// staticCallee resolves fun to the *types.Func it will invoke, or nil
// for dynamic calls (interface methods, func values).
func (s *scanner) staticCallee(fun ast.Expr) *types.Func {
	fn := s.calledFunc(fun)
	if fn == nil {
		return nil
	}
	// A method reached through an interface is dynamic.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
			return nil
		}
	}
	return fn
}

// calledFunc resolves fun to the function or method a call of it
// names, interface methods and explicitly instantiated generic
// functions included, or nil for a func value.
func (s *scanner) calledFunc(fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.IndexExpr:
		return s.calledFunc(f.X)
	case *ast.IndexListExpr:
		return s.calledFunc(f.X)
	case *ast.Ident:
		fn, _ := s.pkg.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := s.pkg.Info.Selections[f]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.F.
		fn, _ := s.pkg.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// growsSlice reports whether fn is a standard-library function that
// appends to, grows or copies the slice it is given: every Append
// function or method of encoding/binary, strconv and unicode/utf8, and
// slices.Grow, Clone, Insert and Concat and bytes.Clone. The analyzer
// follows no call out of the module, so these are banned at the call.
func growsSlice(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "encoding/binary", "strconv", "unicode/utf8":
		return strings.HasPrefix(fn.Name(), "Append")
	case "slices":
		switch fn.Name() {
		case "Grow", "Clone", "Insert", "Concat":
			return true
		}
	case "bytes":
		return fn.Name() == "Clone"
	}
	return false
}

func (s *scanner) inModule(path string) bool {
	m := s.pkg.Module
	return m != "" && (path == m || strings.HasPrefix(path, m+"/"))
}

func (s *scanner) markCalled(sel *ast.SelectorExpr) {
	if s.calledSelectors == nil {
		s.calledSelectors = map[*ast.SelectorExpr]bool{}
	}
	s.calledSelectors[sel] = true
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isPointerShaped(t types.Type) bool {
	switch b := t.(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return b.Kind() == types.UnsafePointer
	}
	return false
}
