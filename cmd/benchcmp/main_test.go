package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testBenchmark declares one metric of each direction with a bound,
// and one per-layer metric.
const testBenchmark = `{
  "end_to_end": [
    {"name": "batch_p90_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "decisions_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
  ],
  "per_layer": [{"name": "lease_hits", "unit": "count", "better": "higher"}]
}`

// runs returns one correct result line per value of metric, each with
// 1000 operations attempted and none failed.
func runs(metric string, vals ...float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(`{"correct":true,"attempted":1000,"failed":0,"metrics":{%q:{"value":%g,"unit":""}}}`, metric, v)
	}
	return out
}

// writeFile writes lines to a file in dir and returns its path.
func writeFile(t *testing.T, dir, name string, lines []string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerdicts(t *testing.T) {
	p90 := []float64{3.0, 3.1, 3.2, 3.3, 3.4, 3.0, 3.1, 3.2, 3.3, 3.4}
	lowered := func(by float64, vals []float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v - by
		}
		return out
	}
	eightOfTen := lowered(0.8, p90)
	eightOfTen[3], eightOfTen[7] = 3.5, 3.5
	incorrect := runs("batch_p90_us", 3.0, 3.0, 3.0)
	incorrect[1] = strings.Replace(incorrect[1], `"correct":true`, `"correct":false`, 1)
	failing := runs("batch_p90_us", 3.0, 3.0, 3.0)
	failing[2] = strings.Replace(failing[2], `"failed":0`, `"failed":1`, 1)

	for _, tc := range []struct {
		name           string
		claim          string
		parent, change []string
		code           int
		row            string // the metric's row: its name, then the change's wins and verdict
		also           string // another line the report must hold
	}{
		{"claim gained", "batch_p90_us", runs("batch_p90_us", p90...), runs("batch_p90_us", lowered(0.8, p90)...),
			0, "batch_p90_us 10/10 gain", ""},
		{"claim won in 8 of 10 pairs", "batch_p90_us", runs("batch_p90_us", p90...), runs("batch_p90_us", eightOfTen...),
			1, "batch_p90_us 8/10 not met", ""},
		{"claim within the parent's interquartile distance", "batch_p90_us",
			runs("batch_p90_us", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), runs("batch_p90_us", 0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5),
			1, "batch_p90_us 10/10 not met", ""},
		{"lower-better metric worse", "", runs("batch_p90_us", 3, 3, 3, 3, 3), runs("batch_p90_us", 3.8, 3.8, 3.8, 3.8, 3.8),
			1, "batch_p90_us 0/5 worse", ""},
		{"higher-better metric worse", "", runs("decisions_per_s", 100, 100, 100), runs("decisions_per_s", 70, 74, 120),
			1, "decisions_per_s 1/3 worse", ""},
		{"parent spread wider than the bound", "", runs("batch_p90_us", 2, 3, 3, 3, 4), runs("batch_p90_us", 3.1, 3.1, 3.1, 2.9, 3.1),
			0, "batch_p90_us 2/5 unresolved", ""},
		{"every change run beats every parent run", "", runs("batch_p90_us", 2, 3, 3, 3, 4), runs("batch_p90_us", 1.9, 1.8, 1.9, 1.7, 1.9),
			0, "batch_p90_us 5/5 within bound", ""},
		{"within bound", "", runs("decisions_per_s", 100, 101, 99, 100), runs("decisions_per_s", 95, 96, 94, 95),
			0, "decisions_per_s 0/4 within bound", ""},
		{"ties count for neither side", "", runs("decisions_per_s", 100, 100, 100), runs("decisions_per_s", 100, 100, 101),
			0, "decisions_per_s 1/3 within bound", ""},
		{"per-layer metric", "", runs("lease_hits", 10, 20), runs("lease_hits", 5, 5),
			0, "lease_hits 0/2 no bound", ""},
		{"incorrect run", "", runs("batch_p90_us", 3.0, 3.0, 3.0), incorrect,
			1, "batch_p90_us 0/3 within bound", `change run 2 reads "correct": false`},
		{"larger failed share", "", runs("batch_p90_us", 3.0, 3.0, 3.0), failing,
			1, "batch_p90_us 0/3 within bound", "failed share: parent 0, change 0.000333"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			bench := writeFile(t, dir, "BENCHMARK.json", []string{testBenchmark})
			args := []string{writeFile(t, dir, "parent.jsonl", tc.parent), writeFile(t, dir, "change.jsonl", tc.change)}
			if tc.claim != "" {
				args = append([]string{"-claim", tc.claim}, args...)
			}
			var stdout, stderr bytes.Buffer
			code := run(args, bench, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit %d, want %d; stderr %q", code, tc.code, stderr.String())
			}
			name, rest, _ := strings.Cut(tc.row, " ")
			wins, verdict, _ := strings.Cut(rest, " ")
			var row string
			for _, line := range strings.Split(stdout.String(), "\n") {
				if strings.HasPrefix(line, name+" ") {
					row = line
				}
			}
			if !strings.Contains(row, " "+wins+" ") || !strings.HasSuffix(row, " "+verdict) {
				t.Errorf("row %q, want %s's wins %s and verdict %q\n%s", row, name, wins, verdict, stdout.String())
			}
			if tc.also != "" && !strings.Contains(stdout.String(), tc.also) {
				t.Errorf("report lacks %q:\n%s", tc.also, stdout.String())
			}
		})
	}
}

func TestUnreadableInput(t *testing.T) {
	dir := t.TempDir()
	bench := writeFile(t, dir, "BENCHMARK.json", []string{testBenchmark})
	three := writeFile(t, dir, "three.jsonl", runs("batch_p90_us", 1, 2, 3))
	two := writeFile(t, dir, "two.jsonl", runs("batch_p90_us", 1, 2))
	garbled := writeFile(t, dir, "garbled.jsonl", []string{"{"})
	for _, args := range [][]string{
		{three},
		{three, two},
		{three, garbled},
		{three, filepath.Join(dir, "missing.jsonl")},
		{"-claim", "setup_s", three, three},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, bench, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}

// TestRepositoryBenchmark reads the repository's own declaration: every
// metric has a direction, and each end-to-end metric a bound.
func TestRepositoryBenchmark(t *testing.T) {
	specs, err := readSpecs(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bounded int
	for _, m := range specs {
		if m.Bound > 0 {
			bounded++
		}
	}
	if bounded == 0 {
		t.Errorf("no metric of %d has a bound", len(specs))
	}
}
