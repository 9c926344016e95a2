package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Main is cmd/ringvet's entry point: `ringvet [packages]` loads the
// packages (default ./...) from the current directory and runs every
// analyzer over them. It returns the process exit code: 0 clean, 2
// diagnostics, 1 error.
func Main(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringvet: %v\n", err)
		return 1
	}
	diags, err := Run(pkgs, Analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringvet: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// Load lists patterns with `go list -deps -export -json` from dir and
// returns the module's packages, type-checked from source in
// dependency order as one type universe: each module package imports
// the module packages already checked, and only out-of-module
// dependencies (the standard library) are read from their compiler
// export data. So only the code under analysis is parsed, and a
// function seen from another package is the very *types.Func its own
// package declared.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-json=Dir,ImportPath,Standard,Export,GoFiles,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var listed []*listPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := &listPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard || lp.Module == nil {
			exports[lp.ImportPath] = lp.Export
		} else {
			listed = append(listed, lp)
		}
	}

	fset := token.NewFileSet()
	fromExport := exportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return fromExport.Import(path)
	})

	var pkgs []*Package
	for _, lp := range listed {
		var files []string
		for _, name := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, name))
		}
		pkg, err := typecheck(fset, lp.ImportPath, lp.Module.Path, files, imp)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportImporter returns a gc-export-data importer whose file lookup
// is supplied by resolve (import path -> export file).
func exportImporter(fset *token.FileSet, resolve func(string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := resolve(path)
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheck parses files (skipping _test.go — the static invariants
// target production code) and type-checks them into a Package.
func typecheck(fset *token.FileSet, path, module string, files []string, imp types.Importer) (*Package, error) {
	var syntax []*ast.File
	for _, file := range files {
		if strings.HasSuffix(filepath.Base(file), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", file, err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	sizes := types.SizesFor("gc", runtime.GOARCH)
	conf := types.Config{Importer: imp, Sizes: sizes}
	tpkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{
		Path:   path,
		Module: module,
		Fset:   fset,
		Syntax: syntax,
		Types:  tpkg,
		Info:   info,
		Sizes:  sizes,
	}, nil
}
