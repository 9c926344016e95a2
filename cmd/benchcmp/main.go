// Command benchcmp compares paired perfbench runs of a parent commit
// and a change against the bounds BENCHMARK.json fixes.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchcmp [-claim <metric>] parent.jsonl change.jsonl
//
// Line i of each file is the perfbench result line of pair i, for one
// workload. For each metric BENCHMARK.json lists that the runs report,
// it prints each side's median and nearest-rank quartiles and the pairs
// the change won (ties count for neither side), with a verdict:
//
//	gain          the -claim metric, when the change won at least 9/10
//	              of the pairs and the medians differ, in the better
//	              direction, by more than the parent's interquartile
//	              distance
//	not met       the -claim metric otherwise
//	worse         the change's median is worse than the parent's by
//	              more than bound × the parent's median
//	unresolved    otherwise, when the parent's runs span (max − min)
//	              more than that amount and not every change run beats
//	              every parent run
//	within bound  otherwise
//	no bound      a per-layer metric, which BENCHMARK.json gives no bound
//
// It also prints each side's failed share (Σ failed ÷ Σ attempted) and
// every run that reads "correct": false. It exits 1 on worse, an unmet
// claim, an incorrect run, or a failed share above the parent's, and 2
// on unreadable input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:], "BENCHMARK.json", os.Stdout, os.Stderr))
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // 0 for a per-layer metric
}

// result is one perfbench result line.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// run is the testable body of the command; benchmark is the path of
// the benchmark declaration, which it only reads.
func run(args []string, benchmark string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	claim := fs.String("claim", "", "the metric the change claims a gain on")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchcmp [-claim <metric>] parent.jsonl change.jsonl")
		return 2
	}
	fail, err := report(stdout, benchmark, *claim, fs.Arg(0), fs.Arg(1))
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	case fail:
		return 1
	}
	return 0
}

// report reads the benchmark declaration and both sides' runs, writes
// the comparison to w and reports whether it fails the change.
func report(w io.Writer, benchmark, claim, parentPath, changePath string) (bool, error) {
	specs, err := readSpecs(benchmark)
	if err != nil {
		return false, err
	}
	parent, err := readResults(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return false, err
	}
	return compare(w, specs, claim, parent, change)
}

// readSpecs reads the end-to-end and per-layer metrics of a benchmark
// declaration.
func readSpecs(path string) ([]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	specs := append(decl.EndToEnd, decl.PerLayer...)
	for _, m := range specs {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %q: better is %q, not lower or higher", path, m.Name, m.Better)
		}
	}
	return specs, nil
}

// readResults reads the result lines of path.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	for dec := json.NewDecoder(f); dec.More(); {
		var r result
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: result %d: %w", path, len(rs)+1, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// compare writes the report of the pairs (parent[i], change[i]) and
// reports whether any verdict fails the change.
func compare(w io.Writer, specs []metricSpec, claim string, parent, change []result) (bool, error) {
	if len(parent) == 0 || len(parent) != len(change) {
		return false, fmt.Errorf("%d parent runs and %d change runs: want the same number, at least one", len(parent), len(change))
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tparent median [q1 q3] (min max)\tchange median [q1 q3] (min max)\tchange wins\tverdict")
	var fail, claimed bool
	for _, m := range specs {
		if _, ok := parent[0].Metrics[m.Name]; !ok {
			continue
		}
		p, err := values(parent, m.Name, "parent")
		if err != nil {
			return false, err
		}
		c, err := values(change, m.Name, "change")
		if err != nil {
			return false, err
		}
		claimed = claimed || m.Name == claim
		wins, verdict, bad := judge(m, m.Name == claim, p, c)
		fail = fail || bad
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%s\n", m.Name, summarize(p), summarize(c), wins, len(p), verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if claim != "" && !claimed {
		return false, fmt.Errorf("claimed metric %q is not among the runs' metrics", claim)
	}
	ps, cs := failedShare(parent), failedShare(change)
	fmt.Fprintf(w, "failed share: parent %.3g, change %.3g\n", ps, cs)
	if cs > ps {
		fmt.Fprintln(w, "the change fails a larger share of operations")
		fail = true
	}
	fail = printIncorrect(w, "parent", parent) || fail
	fail = printIncorrect(w, "change", change) || fail
	return fail, nil
}

// printIncorrect prints each run of rs that reads "correct": false and
// reports whether there was one.
func printIncorrect(w io.Writer, side string, rs []result) bool {
	found := false
	for i, r := range rs {
		if !r.Correct {
			fmt.Fprintf(w, "%s run %d reads \"correct\": false\n", side, i+1)
			found = true
		}
	}
	return found
}

// values returns metric name of every run, in pair order.
func values(rs []result, name, side string) ([]float64, error) {
	v := make([]float64, len(rs))
	for i, r := range rs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("%s run %d has no metric %q", side, i+1, name)
		}
		v[i] = m.Value
	}
	return v, nil
}

// judge counts the pairs the change won on m and returns its verdict,
// and whether that verdict fails the change.
func judge(m metricSpec, claimed bool, p, c []float64) (int, string, bool) {
	// gain(a, b) is how much better a reads than b.
	gain := func(a, b float64) float64 {
		if m.Better == "lower" {
			return b - a
		}
		return a - b
	}
	wins := 0
	for i := range p {
		if gain(c[i], p[i]) > 0 {
			wins++
		}
	}
	ps, cs := summarize(p), summarize(c)
	worst := cs.max // the change's worst run, against the parent's best
	best := ps.min
	if m.Better == "higher" {
		worst, best = cs.min, ps.max
	}
	allBeat := gain(worst, best) > 0
	switch {
	case claimed:
		if 10*wins >= 9*len(p) && gain(cs.median, ps.median) > ps.q3-ps.q1 {
			return wins, "gain", false
		}
		return wins, "not met", true
	case m.Bound == 0:
		return wins, "no bound", false
	case -gain(cs.median, ps.median) > m.Bound*ps.median:
		return wins, "worse", true
	case ps.max-ps.min > m.Bound*ps.median && !allBeat:
		return wins, "unresolved", false
	}
	return wins, "within bound", false
}

// stats is one side's runs of one metric, by nearest rank.
type stats struct{ min, q1, median, q3, max float64 }

func summarize(v []float64) stats {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// rank returns the nearest-rank p-quantile: the smallest value with
	// at least p of the runs at or below it.
	rank := func(num, den int) float64 {
		return s[(num*len(s)+den-1)/den-1] // s[ceil(p·n) - 1]
	}
	return stats{s[0], rank(1, 4), rank(1, 2), rank(3, 4), s[len(s)-1]}
}

func (s stats) String() string {
	return fmt.Sprintf("%.5g [%.5g %.5g] (%.5g %.5g)", s.median, s.q1, s.q3, s.min, s.max)
}

// failedShare returns Σ failed ÷ Σ attempted over rs; 0 when nothing
// was attempted.
func failedShare(rs []result) float64 {
	var failed, attempted uint64
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
