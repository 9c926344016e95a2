// Package analysis is ringvet's analyzer framework: a deliberately
// small, dependency-free re-implementation of the parts of
// golang.org/x/tools/go/analysis that the repo's static invariants
// need. This module carries no third-party dependencies (the decision
// service builds from the standard library alone), so the framework is
// built on go/ast, go/types and go/importer directly:
//
//   - an Analyzer is a named pass over one type-checked package;
//   - a Pass hands the analyzer the syntax trees, the type
//     information, the parsed //ring: annotations, and the facts of
//     every function scanned so far;
//   - Load (load.go) type-checks the module as one type universe: it
//     lists the packages with `go list`, checks each module package
//     from source against the module packages already checked, and
//     reads only out-of-module packages (the standard library) from
//     compiler export data. A callee in another package is therefore
//     the very *types.Func its own package declared, and facts are
//     keyed by it.
//
// The shared fact computation lives here rather than per-analyzer:
// Scan walks every function once and records the heap-allocating
// constructs it contains, its static module-internal callees, and its
// //ring: markers. Analyzers consume that one scan. This deviates from
// x/tools' per-analyzer fact modularity, but it keeps the framework a
// few hundred lines and the analyzers declarative.
//
// # Annotation grammar
//
// Annotations are line comments beginning exactly with "//ring:".
//
//	//ring:hotpath            on a function: the function and every
//	                          module-internal function it statically
//	                          calls must be free of heap-allocating
//	                          constructs (see hotpath).
//	//ring:locked <field>     on a function: the caller is required to
//	                          hold the named mutex; guarded writes
//	                          inside are legal, and every call site is
//	                          checked (see mutguard).
//	//ring:guarded <field>    on a struct field: writes require the
//	                          named sibling mutex (see mutguard).
//	//ring:allow <reason>     on (or immediately above) a line:
//	                          suppress ringvet diagnostics for that
//	                          line. The reason is mandatory.
//
// The annot analyzer validates the grammar itself: unknown
// directives, reasonless allows, markers attached to nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path   string
	Module string // module path; "" for out-of-module packages
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
	Sizes  types.Sizes
}

// A Pass carries everything one analyzer run over one package needs.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Notes    *Notes
	// Facts holds the facts of every function scanned so far: those of
	// this package and of every module package it imports.
	Facts map[*types.Func]*FuncFact

	report func(token.Pos, string)
}

// Reportf records one diagnostic at pos. Diagnostics on lines covered
// by a //ring:allow annotation are dropped by the driver.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Run executes the analyzers over pkgs, which must share one type
// universe and come in dependency order (a package after every package
// it imports), as Load returns them. It returns the diagnostics,
// sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := map[*types.Func]*FuncFact{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		notes := ParseNotes(pkg)
		Scan(pkg, notes, facts)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Notes:    notes,
				Facts:    facts,
			}
			pass.report = func(pos token.Pos, msg string) {
				position := pkg.Fset.Position(pos)
				// ring:allow suppression — except for the annot
				// analyzer, whose whole job is grading annotations.
				if a.Name != "annot" {
					if _, ok := notes.Allowed[lineKey(position)]; ok {
						return
					}
				}
				diags = append(diags, Diagnostic{Pos: position, Analyzer: a.Name, Message: msg})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// lineKey is the "file:line" key of allow suppression, also the form
// in which a diagnostic names a position in another function.
func lineKey(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// ---- Annotations ----

// FuncNote is the parsed markers of one function.
type FuncNote struct {
	Hot    bool
	Locked string // mutex field name from //ring:locked
}

// Problem is a malformed annotation, reported by the annot analyzer.
type Problem struct {
	Pos token.Pos
	Msg string
}

// Notes is the parsed //ring: annotation set of one package.
type Notes struct {
	// Funcs maps annotated declarations to their markers.
	Funcs map[*ast.FuncDecl]*FuncNote
	// Allowed maps "file:line" to the allow reason. A standalone
	// allow comment covers its own line and the one after it; an
	// end-of-line allow covers its line.
	Allowed map[string]string
	// Guarded maps annotated struct fields (by their defining
	// *types.Var) to the guarding sibling mutex field name.
	Guarded map[*types.Var]string
	// Problems collects grammar violations for the annot analyzer.
	Problems []Problem
}

const directivePrefix = "//ring:"

// directive splits a "//ring:verb rest" comment; ok is false for
// ordinary comments.
func directive(c *ast.Comment) (verb, rest string, ok bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return "", "", false
	}
	body := strings.TrimPrefix(c.Text, directivePrefix)
	verb, rest, _ = strings.Cut(body, " ")
	return strings.TrimSpace(verb), strings.TrimSpace(rest), true
}

// ParseNotes extracts the package's //ring: annotations. Test files
// (_test.go) are not scanned: the static invariants target production
// code; the runtime gates cover the tests themselves.
func ParseNotes(pkg *Package) *Notes {
	n := &Notes{
		Funcs:   map[*ast.FuncDecl]*FuncNote{},
		Allowed: map[string]string{},
		Guarded: map[*types.Var]string{},
	}
	for _, file := range pkg.Syntax {
		consumed := map[*ast.Comment]bool{}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Doc == nil {
					continue
				}
				for _, c := range d.Doc.List {
					verb, rest, ok := directive(c)
					if !ok {
						continue
					}
					consumed[c] = true
					note := n.Funcs[d]
					if note == nil {
						note = &FuncNote{}
						n.Funcs[d] = note
					}
					switch verb {
					case "hotpath":
						note.Hot = true
					case "locked":
						if rest == "" {
							n.Problems = append(n.Problems, Problem{c.Pos(), "ring:locked requires a mutex field name"})
							continue
						}
						note.Locked = rest
					case "allow":
						// An allow inside a doc comment guards the
						// declaration line.
						n.recordAllow(pkg, c, rest)
					default:
						n.Problems = append(n.Problems, Problem{c.Pos(), fmt.Sprintf("unknown ringvet directive %q", verb)})
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					n.parseStruct(pkg, st, consumed)
				}
			}
		}
		// Sweep the remaining comments: allows anywhere; every other
		// directive must have been consumed by an attachment above.
		for _, group := range file.Comments {
			for _, c := range group.List {
				verb, rest, ok := directive(c)
				if !ok || consumed[c] {
					continue
				}
				switch verb {
				case "allow":
					n.recordAllow(pkg, c, rest)
				case "hotpath", "locked":
					// Every marker consumed by a function's doc group
					// was recorded above; anything left is attached to
					// nothing that exists.
					n.Problems = append(n.Problems, Problem{c.Pos(),
						fmt.Sprintf("ring:%s is not attached to a function declaration", verb)})
				case "guarded":
					n.Problems = append(n.Problems, Problem{c.Pos(), "ring:guarded is not attached to a struct field"})
				default:
					n.Problems = append(n.Problems, Problem{c.Pos(), fmt.Sprintf("unknown ringvet directive %q", verb)})
				}
			}
		}
	}
	return n
}

// parseStruct records //ring:guarded annotations of st's fields.
func (n *Notes) parseStruct(pkg *Package, st *ast.StructType, consumed map[*ast.Comment]bool) {
	names := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			names[name.Name] = true
		}
	}
	for _, f := range st.Fields.List {
		for _, group := range []*ast.CommentGroup{f.Doc, f.Comment} {
			if group == nil {
				continue
			}
			for _, c := range group.List {
				verb, rest, ok := directive(c)
				if !ok {
					continue
				}
				consumed[c] = true
				switch verb {
				case "guarded":
					// Anything after the mutex name is free-form prose
					// ("//ring:guarded mu (load order)").
					mu, _, _ := strings.Cut(rest, " ")
					rest = mu
					if rest == "" {
						n.Problems = append(n.Problems, Problem{c.Pos(), "ring:guarded requires a mutex field name"})
						continue
					}
					if !names[rest] {
						n.Problems = append(n.Problems, Problem{c.Pos(),
							fmt.Sprintf("ring:guarded names %q, which is not a field of the same struct", rest)})
						continue
					}
					for _, name := range f.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							n.Guarded[v] = rest
						}
					}
				case "allow":
					n.recordAllow(pkg, c, rest)
				default:
					n.Problems = append(n.Problems, Problem{c.Pos(),
						fmt.Sprintf("ring:%s is not valid on a struct field", verb)})
				}
			}
		}
	}
}

// recordAllow registers an allow annotation: its own line, and — when
// the comment stands alone on its line — the following line too.
func (n *Notes) recordAllow(pkg *Package, c *ast.Comment, reason string) {
	pos := pkg.Fset.Position(c.Pos())
	if reason == "" {
		n.Problems = append(n.Problems, Problem{c.Pos(), "ring:allow requires a reason"})
		return
	}
	n.Allowed[lineKey(pos)] = reason
	next := pos
	next.Line++
	n.Allowed[lineKey(next)] = reason
}
