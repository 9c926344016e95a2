package tenant

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
)

// Golden HTTP fixtures pin the daemon's wire format byte for byte:
// every field name, the indentation writeJSON emits, the shard/version
// interval on each decision, and the error bodies of the 4xx paths.
// A change that drifts the format fails here before any client does.
// Regenerate deliberately with:
//
//	go test ./internal/tenant -run 'Golden' -update
var update = flag.Bool("update", false, "rewrite golden HTTP fixtures")

// checkGolden compares got against testdata/golden/<name>, rewriting
// the fixture under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write fixture: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenReplayAgainstDefaultTenant runs an ordered request
// sequence against a single-worker default tenant (so worker indices
// and store versions are deterministic) and pins every response body
// against its fixture, through the single-tenant endpoints and the
// tenant-scoped route alike.
func TestGoldenReplayAgainstDefaultTenant(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{}, TenantConfig{Workers: 1})

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, buf.String())
		}
		return buf.Bytes()
	}
	post := func(path, body string, wantStatus int) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s: status %d, want %d: %s", path, resp.StatusCode, wantStatus, buf.String())
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("POST %s: Content-Type %q, want application/json", path, ct)
		}
		return buf.Bytes()
	}

	// Pre-mutation health: version 0, the default shard count.
	checkGolden(t, "healthz.json", get("/healthz"))

	// One batch exercising every op: allowed and denied access, a gate
	// call with a ring switch, a return, and an effective-ring chain.
	// All shard intervals are [0,0] — nothing has mutated yet.
	checkGolden(t, "check_ok.json", post("/v1/check", `{"queries": [
  {"op": "access", "ring": 4, "segment": "data", "wordno": 3, "kind": "read"},
  {"op": "access", "ring": 5, "segment": "data", "kind": "read"},
  {"op": "access", "ring": 7, "segment": "secret", "kind": "read"},
  {"op": "call", "ring": 4, "segment": "code", "wordno": 1},
  {"op": "return", "ring": 2, "segment": "code", "eff_ring": 3},
  {"op": "effring", "ring": 2, "chain": [{"pr": true, "ring": 3}]}
]}`, http.StatusOK))

	// Error paths: malformed body, empty batch, unknown access kind.
	checkGolden(t, "check_malformed.json", post("/v1/check", "{not json", http.StatusBadRequest))
	checkGolden(t, "check_empty.json", post("/v1/check", `{"queries": []}`, http.StatusBadRequest))
	checkGolden(t, "check_bad_kind.json", post("/v1/check",
		`{"queries": [{"op": "access", "ring": 1, "segment": "data", "kind": "sniff"}]}`,
		http.StatusBadRequest))

	// First mutation: the store's epoch sum moves to 2 (one completed
	// edit on one shard).
	checkGolden(t, "mutate_ok.json", post("/v1/mutate",
		`{"op": "setbrackets", "segment": "data", "read": true, "write": true, "r1": 1, "r2": 1, "r3": 1}`,
		http.StatusOK))

	// The same access that check_ok.json allowed now reports the
	// post-mutation shard interval and denies, on either route.
	afterMutate := `{"queries": [{"op": "access", "ring": 4, "segment": "data", "wordno": 3, "kind": "read"}]}`
	checkGolden(t, "check_after_mutate.json", post("/v1/check", afterMutate, http.StatusOK))
	checkGolden(t, "check_after_mutate.json", post("/v1/t/default/check", afterMutate, http.StatusOK))

	checkGolden(t, "mutate_unknown_segment.json", post("/v1/mutate",
		`{"op": "revoke", "segment": "nonesuch"}`, http.StatusNotFound))
}

// TestHTTPGoldenQueueFull pins the answer to a shed batch — 429, a
// Retry-After of one second, and the error body — through the
// handler's error path, which every check rejection takes.
func TestHTTPGoldenQueueFull(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, service.ErrQueueFull, false)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	checkGolden(t, "check_queue_full.json", rec.Body.Bytes())
}
