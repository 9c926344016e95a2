package analysis

// Suite-level tests: the repository itself must be ringvet-clean, the
// gate must actually trip when an allocation sneaks into the decision
// hot path, and every //ring:hotpath marker must attach to a real
// function.

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const repoRoot = "../.."

// TestRepoClean runs the full suite over the whole module and demands
// zero diagnostics — the same gate as CI's ringvet step.
func TestRepoClean(t *testing.T) {
	pkgs, err := Load(repoRoot, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(pkgs, Analyzers)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSprintfInjectionCaught copies the module aside, plants an
// allocation on SubmitInto's call graph, and demands that the hotpath
// analyzer reports it in service.go. This is the end-to-end proof that
// the gate is live, not vacuously green. The first plant is a
// fmt.Sprintf inside the hot Decider.Decide. The second is a make at
// the top of core.ReadCheck, which is not marked hot but is called from
// the hot (*Decider).eval: it is found only when the callee the service
// scanned is the very function core's scan recorded.
func TestSprintfInjectionCaught(t *testing.T) {
	for _, tc := range []struct {
		name, file, anchor, plant string
		want                      []string // substrings of one hotpath diagnostic
	}{{
		name:   "Decide",
		file:   filepath.Join("internal", "service", "service.go"),
		anchor: "func (dc *Decider) Decide(queries []Query, dst []Decision) {",
		plant:  "\n\t_ = fmt.Sprintf(\"leaked allocation\")",
		want:   []string{"fmt.Sprintf"},
	}, {
		name:   "ReadCheck",
		file:   filepath.Join("internal", "core", "core.go"),
		anchor: "func ReadCheck(v SDWView, wordno uint32, effRing Ring) ViolationKind {",
		plant:  "\n\t_ = make([]int, 1)",
		want:   []string{"core.ReadCheck", "make (allocates)"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			copyModule(t, repoRoot, tmp)

			victim := filepath.Join(tmp, tc.file)
			src, err := os.ReadFile(victim)
			if err != nil {
				t.Fatalf("read victim: %v", err)
			}
			if !strings.Contains(string(src), tc.anchor) {
				t.Fatalf("anchor %q not found in %s; update the test", tc.anchor, tc.file)
			}
			injected := strings.Replace(string(src), tc.anchor, tc.anchor+tc.plant, 1)
			if err := os.WriteFile(victim, []byte(injected), 0o644); err != nil {
				t.Fatalf("write victim: %v", err)
			}

			pkgs, err := Load(tmp, "./internal/service")
			if err != nil {
				t.Fatalf("load injected module: %v", err)
			}
			diags, err := Run(pkgs, Analyzers)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		next:
			for _, d := range diags {
				if d.Analyzer != "hotpath" || filepath.Base(d.Pos.Filename) != "service.go" {
					continue
				}
				for _, w := range tc.want {
					if !strings.Contains(d.Message, w) {
						continue next
					}
				}
				return // gate tripped, as it must
			}
			t.Fatalf("allocation planted in %s was not reported in service.go; diagnostics: %v", tc.file, diags)
		})
	}
}

// TestHotpathMarkersAttach is the meta-test: every //ring:hotpath
// comment in the production tree must be parsed as a marker on an
// actual function declaration. A marker adrift (miscounted here)
// silently unprotects a path, so the raw grep count and the parsed
// count must agree.
func TestHotpathMarkersAttach(t *testing.T) {
	grepped := 0
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//ring:hotpath") {
				grepped++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if grepped == 0 {
		t.Fatal("no //ring:hotpath markers found in the tree; the hot paths have lost their annotations")
	}

	pkgs, err := Load(repoRoot, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	parsed := 0
	for _, pkg := range pkgs {
		notes := ParseNotes(pkg)
		if len(notes.Problems) > 0 {
			for _, p := range notes.Problems {
				t.Errorf("%s: %s", pkg.Fset.Position(p.Pos), p.Msg)
			}
		}
		for _, note := range notes.Funcs {
			if note.Hot {
				parsed++
			}
		}
	}
	if parsed != grepped {
		t.Errorf("%d //ring:hotpath comments in the tree but %d parsed as function markers: some marker is not attached to a function declaration", grepped, parsed)
	}
}

// copyModule copies go.mod and every production .go file of the
// module into dst, preserving layout. Tests and testdata are skipped
// (the analyzers never read them), as is version control.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".github", "testdata":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		keep := rel == "go.mod" ||
			(strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go"))
		if !keep {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
}
