package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden reports pin the text of every deterministic experiment, so a
// change to a printer or to the code an experiment measures shows as a
// diff. T5 (host times), T11 (the per-processor split) and T12 (a
// concurrent decision mix) differ from run to run and are left out.
// Regenerate deliberately with:
//
//	go test ./internal/exp -run TestReportGolden -update
var update = flag.Bool("update", false, "rewrite golden experiment reports")

var goldenIDs = []string{
	"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
	"T1", "T2", "T3", "T4", "T6", "T7", "T8", "T9", "T10",
}

func TestReportGolden(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			r, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			got := r.String()
			path := filepath.Join("testdata", "golden", id+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s report drifted from %s\n got:\n%s\nwant:\n%s", id, path, got, want)
			}
		})
	}
}
