package analysis

// Fixture tests in the style of x/tools' analysistest: each directory
// under testdata/src/<name> is one package exercising one analyzer,
// with expectations written inline as `// want "regexp"` comments on
// the line the diagnostic should land on. A line may carry several
// expectations; backquoted strings avoid double escaping. Diagnostics
// with no matching expectation, and expectations with no matching
// diagnostic, both fail the test.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestHotPathFixture(t *testing.T) { runFixture(t, "hotpath", HotPath) }
func TestMutGuardFixture(t *testing.T) {
	runFixture(t, "mutguard", MutGuard)
}
func TestAnnotFixture(t *testing.T) { runFixture(t, "annot", Annot) }

// runFixture loads testdata/src/<name>, runs the given analyzers over
// it, and checks the diagnostics against the // want expectations.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	diags, err := Run([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkExpectations(t, pkg, diags)
}

// loadFixture parses and type-checks one fixture directory as a
// single-package module (Path == Module, so intra-fixture calls count
// as module-internal for fact propagation).
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go files", name)
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, stdExportLookup(t))
	modPath := "fix/" + name
	pkg, err := typecheck(fset, modPath, modPath, files, imp)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", name, err)
	}
	return pkg
}

// stdExportLookup resolves standard-library import paths to their
// compiler export data via one `go list` run, shared per test binary.
var stdExports struct {
	once  bool
	files map[string]string
}

func stdExportLookup(t *testing.T) func(string) (string, bool) {
	t.Helper()
	if !stdExports.once {
		stdExports.once = true
		stdExports.files = map[string]string{}
		cmd := exec.Command("go", "list", "-deps", "-export",
			"-json=ImportPath,Export", "std")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list std: %v\n%s", err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var lp struct{ ImportPath, Export string }
			if err := dec.Decode(&lp); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("go list std output: %v", err)
			}
			if lp.Export != "" {
				stdExports.files[lp.ImportPath] = lp.Export
			}
		}
	}
	return func(path string) (string, bool) {
		f, ok := stdExports.files[path]
		return f, ok
	}
}

// expectation is one `// want` pattern, anchored to a file:line.
type expectation struct {
	pos token.Position
	re  *regexp.Regexp
	hit bool
}

// wantPatterns extracts the quoted or backquoted patterns following
// the word "want" in a comment's text.
var wantMarker = regexp.MustCompile(`// want (.*)$|/\* want (.*)\*/`)
var wantString = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func wantPatterns(text string) []string {
	m := wantMarker.FindStringSubmatch(text)
	if m == nil {
		return nil
	}
	rest := m[1]
	if rest == "" {
		rest = m[2]
	}
	var pats []string
	for _, q := range wantString.FindAllStringSubmatch(rest, -1) {
		if q[1] != "" {
			pats = append(pats, q[1])
		} else {
			pats = append(pats, q[2])
		}
	}
	return pats
}

// checkExpectations matches diagnostics against // want comments, by
// file and line, in both directions.
func checkExpectations(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	byLine := map[string][]*expectation{}
	for _, file := range pkg.Syntax {
		for _, group := range file.Comments {
			for _, c := range group.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range wantPatterns(c.Text) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					byLine[key] = append(byLine[key], &expectation{pos: pos, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, e := range byLine[key] {
			if e.re.MatchString(d.Message) {
				e.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, es := range byLine {
		for _, e := range es {
			if !e.hit {
				t.Errorf("%s: expected diagnostic matching %q, got none", e.pos, e.re)
			}
		}
	}
}
