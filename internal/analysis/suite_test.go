package analysis

// Suite-level tests: the repository itself must be ringvet-clean, the
// gate must actually trip when an allocation sneaks into the decision
// hot path, every //ring:hotpath marker must attach to a real
// function, and the unitchecker driver must interoperate with
// `go vet -vettool`.

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const repoRoot = "../.."

// TestRepoClean runs the full suite over the whole module and demands
// zero diagnostics — the same gate CI applies through go vet.
func TestRepoClean(t *testing.T) {
	pkgs, err := Load(repoRoot, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, _, err := Run(pkgs, Analyzers, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSprintfInjectionCaught copies the module aside, plants a
// fmt.Sprintf inside Decider.Decide — squarely in SubmitInto's call
// graph — and demands that the hotpath analyzer reports it. This is
// the end-to-end proof that the gate is live, not vacuously green.
func TestSprintfInjectionCaught(t *testing.T) {
	tmp := t.TempDir()
	copyModule(t, repoRoot, tmp)

	victim := filepath.Join(tmp, "internal", "service", "service.go")
	src, err := os.ReadFile(victim)
	if err != nil {
		t.Fatalf("read victim: %v", err)
	}
	const anchor = "func (dc *Decider) Decide(queries []Query, dst []Decision) {"
	if !strings.Contains(string(src), anchor) {
		t.Fatalf("anchor %q not found in service.go; update the test", anchor)
	}
	injected := strings.Replace(string(src), anchor,
		anchor+"\n\t_ = fmt.Sprintf(\"leaked allocation\")", 1)
	if err := os.WriteFile(victim, []byte(injected), 0o644); err != nil {
		t.Fatalf("write victim: %v", err)
	}

	pkgs, err := Load(tmp, "./internal/service")
	if err != nil {
		t.Fatalf("load injected module: %v", err)
	}
	diags, _, err := Run(pkgs, Analyzers, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		if d.Analyzer == "hotpath" && strings.Contains(d.Message, "fmt.Sprintf") {
			return // gate tripped, as it must
		}
	}
	t.Fatalf("injected fmt.Sprintf in Decide was not reported; diagnostics: %v", diags)
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

// TestVettool builds cmd/ringvet and drives it through the real
// `go vet -vettool` protocol over the whole module, expecting a clean
// exit — the exact invocation CI uses.
func TestVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets the whole module; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "ringvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ringvet")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ringvet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = repoRoot
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool reported findings: %v\n%s", err, out)
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
