package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"F1", "F9", "T1", "T10"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestRunOne(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "f1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d (%s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunUnknown(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "F99"}, &out, &errb); code == 0 {
		t.Error("unknown experiment accepted")
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Errorf("stderr: %s", errb.String())
	}
}

func TestRunJSON(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "T10", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d (%s)", code, errb.String())
	}
	var results []exp.Result
	if err := json.Unmarshal([]byte(out.String()), &results); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(results) != 1 || results[0].ID != "T10" {
		t.Fatalf("results = %+v", results)
	}
	r := results[0]
	if r.HostNs <= 0 {
		t.Errorf("host_ns = %d", r.HostNs)
	}
	if h := r.Host; h.NProc <= 0 || h.GOMAXPROCS <= 0 || h.GoVersion == "" || !strings.Contains(out.String(), `"commit"`) {
		t.Errorf("host block incomplete: %+v", h)
	}
	for _, key := range []string{"cycles_cache_on", "cache_hit_rate"} {
		if _, ok := r.Metrics[key]; !ok {
			t.Errorf("metrics missing %q: %v", key, r.Metrics)
		}
	}
}
