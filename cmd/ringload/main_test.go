package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("access=8,call=1,return=1,effring=1")
	if err != nil {
		t.Fatalf("parseMix: %v", err)
	}
	if m != (mix{access: 8, call: 1, ret: 1, effring: 1}) || m.total() != 11 {
		t.Errorf("mix = %+v", m)
	}
	if m, err := parseMix("access=1"); err != nil || m.total() != 1 {
		t.Errorf("access-only mix: %+v, %v", m, err)
	}
	for _, bad := range []string{"", "access", "access=-1", "frobnicate=3", "access=0,call=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q): want error", bad)
		}
	}
}

func TestParseSweep(t *testing.T) {
	s, err := parseSweep("1, 2,4,8")
	if err != nil || len(s) != 4 || s[3] != 8 {
		t.Errorf("parseSweep: %v, %v", s, err)
	}
	if s, err := parseSweep(""); err != nil || s != nil {
		t.Errorf("empty sweep: %v, %v", s, err)
	}
	for _, bad := range []string{"0", "x", "1,,2", "-4"} {
		if _, err := parseSweep(bad); err == nil {
			t.Errorf("parseSweep(%q): want error", bad)
		}
	}
}

// TestGenQueryDeterministicAndValid checks that generation is
// reproducible for a seed and only produces well-formed queries (the
// load must measure decisions, not error handling).
func TestGenQueryDeterministicAndValid(t *testing.T) {
	m := mix{access: 8, call: 1, ret: 1, effring: 1}
	a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	chk, err := rings.NewChecker(tenant.DemoImage())
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	defer chk.Close()
	for i := 0; i < 200; i++ {
		qa, qb := genQuery(a, m, 6), genQuery(b, m, 6)
		if qa.Op != qb.Op || qa.Segno != qb.Segno || qa.Ring != qb.Ring {
			t.Fatalf("generation diverged at %d: %+v vs %+v", i, qa, qb)
		}
		ds, err := chk.Check(qa)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if ds[0].Err != "" {
			t.Fatalf("generated query %d is malformed: %+v -> %q", i, qa, ds[0].Err)
		}
	}
}

// runJSON runs the command and decodes its JSON output.
func runJSON(t *testing.T, args ...string) []exp.Result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(append(args, "-json"), &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	var results []exp.Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	return results
}

func TestRunInProcess(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "150ms", "-workers", "2")
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.ID != "RINGLOAD" || r.HostNs <= 0 {
		t.Errorf("result shape: %+v", r)
	}
	if h := r.Host; h.NProc <= 0 || h.GOMAXPROCS <= 0 || h.GoVersion == "" {
		t.Errorf("host block incomplete: %+v", h)
	}
	for _, key := range []string{"decisions_per_sec", "decisions", "p50_ns", "p95_ns", "p99_ns", "shards", "mutations"} {
		if _, ok := r.Metrics[key]; !ok {
			t.Errorf("metric %q missing: %v", key, r.Metrics)
		}
	}
	if r.Metrics["decisions"] <= 0 || r.Metrics["decisions_per_sec"] <= 0 {
		t.Errorf("no decisions measured: %v", r.Metrics)
	}
	if r.Metrics["shards"] != 8 {
		t.Errorf("default shards = %v, want 8", r.Metrics["shards"])
	}
	if r.Metrics["p50_ns"] <= 0 || r.Metrics["p99_ns"] < r.Metrics["p50_ns"] {
		t.Errorf("latency percentiles inconsistent: %v", r.Metrics)
	}
}

func TestRunSweep(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "100ms", "-sweep", "2,1")
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].ID != "RINGLOAD-S1" || results[1].ID != "RINGLOAD-S2" {
		t.Errorf("sweep ids: %s, %s (want ascending shard order)", results[0].ID, results[1].ID)
	}
	if results[0].Metrics["shards"] != 1 || results[1].Metrics["shards"] != 2 {
		t.Errorf("sweep shard metrics: %v, %v", results[0].Metrics, results[1].Metrics)
	}
}

func TestRunSweepWorkers(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "100ms", "-sweep-workers", "2,1")
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].ID != "RINGLOAD-W1" || results[1].ID != "RINGLOAD-W2" {
		t.Errorf("worker-sweep ids: %s, %s (want ascending worker order)", results[0].ID, results[1].ID)
	}
	if results[0].Metrics["workers"] != 1 || results[1].Metrics["workers"] != 2 {
		t.Errorf("worker-sweep metrics: %v, %v", results[0].Metrics, results[1].Metrics)
	}
}

// TestRunSweepGrid checks the T14 cross product: -sweep × -sweep-workers
// runs every (workers, shards) cell, workers outermost, both ascending.
func TestRunSweepGrid(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "50ms",
		"-sweep", "2,1", "-sweep-workers", "2,1")
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	wantIDs := []string{"RINGLOAD-S1-W1", "RINGLOAD-S2-W1", "RINGLOAD-S1-W2", "RINGLOAD-S2-W2"}
	for i, want := range wantIDs {
		if results[i].ID != want {
			t.Errorf("grid cell %d: id %s, want %s", i, results[i].ID, want)
		}
	}
	for i, want := range []struct{ w, s float64 }{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		if results[i].Metrics["workers"] != want.w || results[i].Metrics["shards"] != want.s {
			t.Errorf("grid cell %d: workers=%v shards=%v, want %v/%v",
				i, results[i].Metrics["workers"], results[i].Metrics["shards"], want.w, want.s)
		}
	}
}

func TestRunHTTPTarget(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: 2})
	def, err := reg.Load(tenant.DefaultTenant, []rings.Segment{
		{Name: "data", Size: 64, Read: true, Write: true,
			Brackets: rings.Brackets{R1: 2, R2: 4, R3: 4}},
		{Name: "code", Size: 64, Read: true, Execute: true,
			Brackets: rings.Brackets{R1: 1, R2: 3, R3: 5}, Gates: 2},
	}, tenant.TenantConfig{Workers: 2})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{})
	srv := httptest.NewServer(h)
	defer h.Close()
	defer srv.Close()

	results := runJSON(t, "-c", "2", "-batch", "4", "-duration", "150ms", "-target", srv.URL)
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Metrics["decisions"] <= 0 {
		t.Errorf("no decisions over HTTP: %v", r.Metrics)
	}
	if r.Metrics["mutations"] != 0 {
		t.Errorf("HTTP mode ran mutators: %v", r.Metrics)
	}
	if !strings.Contains(strings.Join(r.Lines, "\n"), "mode http") {
		t.Errorf("lines missing mode: %v", r.Lines)
	}
	if snap := def.Service().Snapshot(); snap.Queries == 0 {
		t.Errorf("server saw no queries")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-mix", "bogus"},
		{"-sweep", "0"},
		{"-sweep-workers", "0"},
		{"-c", "0"},
		{"-duration", "0s"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v): want non-zero exit", args)
		}
	}
}

// TestRunWireTarget replays batches against a wire.Server over the
// binary streaming transport and checks the closed loop measures real
// decisions, mirroring TestRunHTTPTarget.
func TestRunWireTarget(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: 2})
	if _, err := reg.Load(tenant.DefaultTenant, tenant.DemoImage(), tenant.TenantConfig{Workers: 2}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ws := wire.NewServer(reg, wire.Config{})
	go ws.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
		reg.Close()
	}()

	results := runJSON(t, "-c", "2", "-batch", "4", "-duration", "150ms",
		"-target", ln.Addr().String(), "-transport", "wire")
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Metrics["decisions"] <= 0 {
		t.Errorf("no decisions over the wire: %v", r.Metrics)
	}
	if r.Metrics["mutations"] != 0 {
		t.Errorf("wire mode ran mutators: %v", r.Metrics)
	}
	if !strings.Contains(strings.Join(r.Lines, "\n"), "mode wire") {
		t.Errorf("lines missing mode: %v", r.Lines)
	}
}

// TestRunCompareTransports smoke-tests the T16 experiment: three
// results (http, wire, delta) with the headline ratio metrics present
// and consistent.
func TestRunCompareTransports(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "150ms",
		"-workers", "2", "-compare-transports")
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	wantIDs := []string{"RINGLOAD-T16-HTTP", "RINGLOAD-T16-WIRE", "RINGLOAD-T16"}
	for i, want := range wantIDs {
		if results[i].ID != want {
			t.Errorf("result %d: id %s, want %s", i, results[i].ID, want)
		}
	}
	httpRes, wireRes, delta := results[0], results[1], results[2]
	if httpRes.Metrics["decisions"] <= 0 || wireRes.Metrics["decisions"] <= 0 {
		t.Fatalf("a transport measured no decisions: http %v, wire %v",
			httpRes.Metrics, wireRes.Metrics)
	}
	for _, key := range []string{"wire_speedup", "p99_ratio", "http_decisions_per_sec", "wire_decisions_per_sec"} {
		if _, ok := delta.Metrics[key]; !ok {
			t.Errorf("delta metric %q missing: %v", key, delta.Metrics)
		}
	}
	if delta.Metrics["wire_speedup"] <= 0 {
		t.Errorf("wire_speedup = %v, want > 0", delta.Metrics["wire_speedup"])
	}
	wantRatio := wireRes.Metrics["decisions_per_sec"] / httpRes.Metrics["decisions_per_sec"]
	if got := delta.Metrics["wire_speedup"]; got < wantRatio*0.99 || got > wantRatio*1.01 {
		t.Errorf("wire_speedup = %v, inconsistent with per-transport metrics (%v)", got, wantRatio)
	}
}

// TestRunRejectsBadTransportFlags pins the flag-validation edges the
// transport work added.
func TestRunRejectsBadTransportFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-transport", "telepathy"},
		{"-compare-transports", "-target", "http://localhost:1"},
		{"-compare-transports", "-tenants", "2"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v): want non-zero exit", args)
		}
	}
}

// TestRunTenants smoke-tests the T15 isolation experiment: the baseline
// (cold tenant alone) then the contended trial, each measuring the
// cold tenant, and a p99 ratio consistent with the two p99s.
func TestRunTenants(t *testing.T) {
	results := runJSON(t, "-tenants", "3", "-c", "2", "-workers", "1", "-queue", "2",
		"-batch", "8", "-duration", "150ms")
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	base, cont := results[0], results[1]
	if base.ID != "RINGLOAD-T15-BASELINE" || cont.ID != "RINGLOAD-T15" {
		t.Fatalf("ids %s, %s; want RINGLOAD-T15-BASELINE, RINGLOAD-T15", base.ID, cont.ID)
	}
	for _, c := range []struct {
		r    exp.Result
		keys []string
	}{
		{base, []string{"cold_decisions_per_sec", "cold_p50_ns", "cold_p99_ns",
			"tenants", "workers_per_tenant", "batch"}},
		{cont, []string{"hot_decisions_per_sec", "hot_p99_ns", "shed_batches",
			"cold_decisions_per_sec", "cold_p99_ns", "cold_p99_baseline_ns", "cold_p99_ratio",
			"tenants", "workers_per_tenant", "clients", "batch"}},
	} {
		if len(c.r.Metrics) != len(c.keys) {
			t.Errorf("%s: %d metrics, want %d: %v", c.r.ID, len(c.r.Metrics), len(c.keys), c.r.Metrics)
		}
		for _, key := range c.keys {
			if _, ok := c.r.Metrics[key]; !ok {
				t.Errorf("%s: metric %q missing: %v", c.r.ID, key, c.r.Metrics)
			}
		}
		if c.r.Metrics["cold_decisions_per_sec"] <= 0 {
			t.Errorf("%s: cold tenant measured no decisions: %v", c.r.ID, c.r.Metrics)
		}
	}
	if cont.Metrics["hot_decisions_per_sec"] <= 0 {
		t.Errorf("hot tenants measured no decisions: %v", cont.Metrics)
	}
	want := cont.Metrics["cold_p99_ns"] / cont.Metrics["cold_p99_baseline_ns"]
	if got := cont.Metrics["cold_p99_ratio"]; got < want*0.99 || got > want*1.01 {
		t.Errorf("cold_p99_ratio = %v, want cold_p99_ns / cold_p99_baseline_ns = %v", got, want)
	}
	if got := cont.Metrics["cold_p99_baseline_ns"]; got != base.Metrics["cold_p99_ns"] {
		t.Errorf("cold_p99_baseline_ns = %v, want the baseline's cold_p99_ns %v", got, base.Metrics["cold_p99_ns"])
	}
}

// TestRunClientCache smoke-tests the T17 experiment: one cell per grid
// rate, the fresh-query cell and the headline, every cell delivering at
// least 90% of its target edit rate (the run itself fails a cell that
// does not).
func TestRunClientCache(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "400ms",
		"-workers", "2", "-client-cache")
	if len(results) != len(t17Rates)+2 {
		t.Fatalf("got %d results, want %d", len(results), len(t17Rates)+2)
	}
	if fresh := results[len(t17Rates)]; fresh.ID != "RINGLOAD-T17-FRESH" || fresh.Metrics["hit_rate"] <= 0 {
		t.Errorf("fresh-query cell: %+v", fresh)
	}
	for i, rate := range t17Rates {
		r := results[i]
		if want := fmt.Sprintf("RINGLOAD-T17-M%d", rate); r.ID != want {
			t.Errorf("result %d: id %s, want %s", i, r.ID, want)
		}
		if got := r.Metrics["achieved_mutation_rate"]; got < 0.9*float64(rate) {
			t.Errorf("%s: achieved %.0f edits/s of %d", r.ID, got, rate)
		}
		if r.Metrics["cached_decisions_per_sec"] <= 0 || r.Metrics["uncached_decisions_per_sec"] <= 0 {
			t.Errorf("%s measured no decisions: %v", r.ID, r.Metrics)
		}
	}
	if head := results[len(t17Rates)+1]; head.ID != "RINGLOAD-T17" || head.Metrics["hit_rate"] <= 0 {
		t.Errorf("headline: %+v", head)
	}
}
