package tenant

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// newTestHandler boots a registry with a default tenant sized by cfg
// behind the multi-tenant handler.
func newTestHandler(t *testing.T, opt HandlerOptions, cfg TenantConfig) (*Tenant, *httptest.Server) {
	t.Helper()
	r := NewRegistry(Config{WorkerBudget: 16})
	def, err := r.Load(DefaultTenant, testImage(), cfg)
	if err != nil {
		t.Fatalf("load default: %v", err)
	}
	h := NewHandler(r, opt)
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})
	return def, ts
}

// do issues a request and decodes the JSON body into a generic map.
func do(t *testing.T, method, url, body string) (int, map[string]interface{}) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := map[string]interface{}{}
	if buf.Len() > 0 {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, buf.String(), err)
		}
	}
	return resp.StatusCode, out
}

func TestHandlerImagesLifecycle(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{}, TenantConfig{Workers: 1})

	// Load a tenant inline.
	code, body := do(t, "POST", ts.URL+"/v1/images", `{"name": "beta", "workers": 1, "segments": [
		{"name": "seg", "size": 16, "read": true, "write": true, "r1": 1, "r2": 3, "r3": 3}
	]}`)
	if code != http.StatusCreated || body["ok"] != true || body["state"] != "active" {
		t.Fatalf("load: %d %v", code, body)
	}

	// Listing shows both tenants, sorted.
	code, body = do(t, "GET", ts.URL+"/v1/images", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d %v", code, body)
	}
	tenants := body["tenants"].([]interface{})
	if len(tenants) != 2 ||
		tenants[0].(map[string]interface{})["name"] != "beta" ||
		tenants[1].(map[string]interface{})["name"] != DefaultTenant {
		t.Errorf("listing: %v", tenants)
	}

	// Detail carries the status row and the metrics snapshot.
	code, body = do(t, "GET", ts.URL+"/v1/images/beta", "")
	if code != http.StatusOK || body["status"] == nil || body["metrics"] == nil {
		t.Errorf("detail: %d %v", code, body)
	}
	if code, _ = do(t, "GET", ts.URL+"/v1/images/ghost", ""); code != http.StatusNotFound {
		t.Errorf("detail of unknown tenant: %d, want 404", code)
	}

	// Tenant-scoped check and mutate work while active.
	code, _ = do(t, "POST", ts.URL+"/v1/t/beta/check",
		`{"queries": [{"op": "access", "ring": 2, "segment": "seg", "kind": "read"}]}`)
	if code != http.StatusOK {
		t.Errorf("tenant check: %d", code)
	}
	code, _ = do(t, "POST", ts.URL+"/v1/t/beta/mutate",
		`{"op": "setbrackets", "segment": "seg", "read": true, "r1": 1, "r2": 2, "r3": 2}`)
	if code != http.StatusOK {
		t.Errorf("tenant mutate: %d", code)
	}
	if code, _ = do(t, "GET", ts.URL+"/v1/t/beta/healthz", ""); code != http.StatusOK {
		t.Errorf("tenant healthz: %d", code)
	}
	if code, _ = do(t, "GET", ts.URL+"/v1/t/beta/metrics", ""); code != http.StatusOK {
		t.Errorf("tenant metrics: %d", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/t/beta/sniff", ""); code != http.StatusNotFound {
		t.Errorf("unknown tenant endpoint: %d, want 404", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/t/ghost/check", "{}"); code != http.StatusNotFound {
		t.Errorf("check of unknown tenant: %d, want 404", code)
	}

	// Seal: mutations 409, decisions still 200.
	if code, _ = do(t, "POST", ts.URL+"/v1/images/beta/seal", ""); code != http.StatusOK {
		t.Fatalf("seal: %d", code)
	}
	code, body = do(t, "POST", ts.URL+"/v1/t/beta/mutate", `{"op": "revoke", "segment": "seg"}`)
	if code != http.StatusConflict {
		t.Errorf("mutate sealed: %d %v, want 409", code, body)
	}
	code, _ = do(t, "POST", ts.URL+"/v1/t/beta/check",
		`{"queries": [{"op": "access", "ring": 2, "segment": "seg", "kind": "read"}]}`)
	if code != http.StatusOK {
		t.Errorf("check sealed: %d, want 200", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/images/beta/seal", ""); code != http.StatusConflict {
		t.Errorf("double seal: %d, want 409", code)
	}

	// Evict via DELETE; the tenant is gone afterwards.
	if code, _ = do(t, "DELETE", ts.URL+"/v1/images/beta", ""); code != http.StatusOK {
		t.Fatalf("evict: %d", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/t/beta/check", "{}"); code != http.StatusNotFound {
		t.Errorf("check evicted: %d, want 404", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/images/beta/evict", ""); code != http.StatusNotFound {
		t.Errorf("double evict: %d, want 404", code)
	}
}

func TestHandlerLoadRejections(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{}, TenantConfig{Workers: 1})

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", `{nope`, http.StatusBadRequest},
		{"bad name", `{"name": "a/b", "segments": [{"name": "s", "size": 1, "read": true}]}`, http.StatusBadRequest},
		{"neither source", `{"name": "x"}`, http.StatusBadRequest},
		{"both sources", `{"name": "x", "file": "f.json", "segments": [{"name": "s", "size": 1, "read": true}]}`, http.StatusBadRequest},
		{"empty image", `{"name": "x", "segments": []}`, http.StatusBadRequest},
		{"invalid brackets", `{"name": "x", "segments": [{"name": "s", "size": 1, "read": true, "r1": 5, "r2": 2, "r3": 1}]}`, http.StatusBadRequest},
		{"duplicate", `{"name": "default", "segments": [{"name": "s", "size": 1, "read": true}]}`, http.StatusConflict},
		{"file loads disabled", `{"name": "x", "file": "f.json"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, body := do(t, "POST", ts.URL+"/v1/images", c.body); code != c.want {
			t.Errorf("%s: %d %v, want %d", c.name, code, body, c.want)
		}
	}

	// The worker budget answers 409.
	code, body := do(t, "POST", ts.URL+"/v1/images",
		`{"name": "greedy", "workers": 99, "segments": [{"name": "s", "size": 1, "read": true}]}`)
	if code != http.StatusConflict {
		t.Errorf("over budget: %d %v, want 409", code, body)
	}
}

func TestHandlerFileLoads(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"segments": [{"name": "s", "size": 4, "read": true, "r1": 1, "r2": 2, "r3": 3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), []byte(`{nope`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestHandler(t, HandlerOptions{ImageDir: dir}, TenantConfig{Workers: 1})

	if code, body := do(t, "POST", ts.URL+"/v1/images", `{"name": "filed", "workers": 1, "file": "good.json"}`); code != http.StatusCreated {
		t.Errorf("file load: %d %v, want 201", code, body)
	}
	// A corrupt image file is a 400, a missing one a 404, and a path
	// escaping the image directory is rejected before any read.
	if code, _ := do(t, "POST", ts.URL+"/v1/images", `{"name": "c1", "file": "corrupt.json"}`); code != http.StatusBadRequest {
		t.Errorf("corrupt file load: %d, want 400", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/v1/images", `{"name": "c2", "file": "absent.json"}`); code != http.StatusNotFound {
		t.Errorf("missing file load: %d, want 404", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/v1/images", `{"name": "c3", "file": "../../../etc/passwd"}`); code == http.StatusCreated {
		t.Error("path escape load unexpectedly succeeded")
	}
}

// TestHandlerHealthzWithoutDefault pins the degraded registry-level
// liveness answer of a daemon with no default image.
func TestHandlerHealthzWithoutDefault(t *testing.T) {
	r := NewRegistry(Config{})
	h := NewHandler(r, HandlerOptions{})
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); h.Close() })

	code, body := do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || body["ok"] != true {
		t.Errorf("healthz without default: %d %v", code, body)
	}
	// The single-tenant decision surface has nothing to route to.
	if code, _ := do(t, "POST", ts.URL+"/v1/check", "{}"); code != http.StatusNotFound {
		t.Errorf("check without default: %d, want 404", code)
	}
}

// postJSON marshals body, posts it, and returns the response and its
// body.
func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return postRaw(t, url, buf)
}

// postRaw posts a raw body and returns the response and its body.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out.Bytes()
}

func decodeJSON(t *testing.T, data []byte, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
}

// TestHTTPCheck drives a mixed batch through POST /v1/check.
func TestHTTPCheck(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{}, TenantConfig{Workers: 2})
	eff := core.Ring(3)
	queries := []service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 5, Segment: "data", Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 2, Segment: "data", Kind: core.AccessWrite},
		{Op: service.OpCall, Ring: 4, Segment: "code", Wordno: 1},
		{Op: service.OpReturn, Ring: 2, Segment: "code", EffRing: &eff},
		{Op: service.OpEffRing, Ring: 2, Chain: []service.ChainStep{{PR: true, Ring: 3}}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/check", service.NewCheckRequest(queries))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out service.CheckResponse
	decodeJSON(t, body, &out)
	if len(out.Decisions) != len(queries) {
		t.Fatalf("got %d decisions, want %d", len(out.Decisions), len(queries))
	}
	wantAllowed := []bool{true, false, true, true, true, true}
	for i, d := range out.Decisions {
		if d.Err != "" {
			t.Errorf("decision %d: err %q", i, d.Err)
		}
		if d.Allowed != wantAllowed[i] {
			t.Errorf("decision %d: allowed=%v, want %v (%+v)", i, d.Allowed, wantAllowed[i], d)
		}
	}
	if out.Decisions[1].Violation != "outside read bracket" {
		t.Errorf("decision 1 violation = %q", out.Decisions[1].Violation)
	}
	if out.Decisions[3].Outcome != "downward call" || out.Decisions[3].NewRing != 3 {
		t.Errorf("decision 3: %+v", out.Decisions[3])
	}
}

// TestHTTPCheckErrors covers the 4xx paths of /v1/check.
func TestHTTPCheckErrors(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{}, TenantConfig{Workers: 1, BatchLimit: 2})

	if code, _ := do(t, "GET", ts.URL+"/v1/check", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/check: status %d, want 405", code)
	}
	for _, c := range []struct{ name, body string }{
		{"malformed", "{not json"},
		{"empty batch", `{"queries": []}`},
		{"unknown kind", `{"queries": [{"op": "access", "ring": 1, "segment": "data", "kind": "sniff"}]}`},
		{"over BatchLimit", `{"queries": [{"op": "access", "ring": 1, "segment": "data"},
			{"op": "access", "ring": 1, "segment": "data"}, {"op": "access", "ring": 1, "segment": "data"}]}`},
	} {
		if code, body := do(t, "POST", ts.URL+"/v1/check", c.body); code != http.StatusBadRequest || body["error"] == nil {
			t.Errorf("%s: status %d %v, want 400 with an error", c.name, code, body)
		}
	}
}

// TestHTTPBodyLimit pins the bound on request bodies: a body one byte
// over maxBody answers 413 before the handler decodes it, on every
// endpoint that decodes one, while a full-size batch still answers.
func TestHTTPBodyLimit(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{}, TenantConfig{Workers: 1, BatchLimit: 1024})

	// A valid document padded to exactly n bytes; its closing brace is
	// the last byte, so the decoder must read all n.
	padded := func(doc string, n int) []byte {
		b := []byte(doc[:len(doc)-1])
		for len(b) < n-1 {
			b = append(b, ' ')
		}
		return append(b, '}')
	}
	check := `{"queries": [{"op": "access", "ring": 4, "segment": "data", "kind": "read"}]}`
	if resp, body := postRaw(t, ts.URL+"/v1/check", padded(check, maxBody)); resp.StatusCode != http.StatusOK {
		t.Errorf("check body of exactly %d bytes: status %d: %s", maxBody, resp.StatusCode, body)
	}
	for _, path := range []string{"/v1/check", "/v1/mutate", "/v1/images"} {
		resp, body := postRaw(t, ts.URL+path, padded(check, maxBody+1))
		var er errorResponse
		decodeJSON(t, body, &er)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Error == "" {
			t.Errorf("%s body of %d bytes: status %d %q, want 413 with an error", path, maxBody+1, resp.StatusCode, er.Error)
		}
	}

	full := make([]service.Query, 1024)
	for i := range full {
		full[i] = service.Query{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: uint32(i % 16), Kind: core.AccessWrite}
	}
	resp, body := postJSON(t, ts.URL+"/v1/check", service.NewCheckRequest(full))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("1024-query batch: status %d: %s", resp.StatusCode, body)
	}
	var out service.CheckResponse
	decodeJSON(t, body, &out)
	if len(out.Decisions) != len(full) {
		t.Errorf("1024-query batch answered %d decisions", len(out.Decisions))
	}
}

// TestHTTPMutate exercises /v1/mutate and observes the effect through
// /v1/check.
func TestHTTPMutate(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{}, TenantConfig{Workers: 2})
	check := func(wantAllowed bool) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/check", service.NewCheckRequest([]service.Query{
			{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead}}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check: status %d: %s", resp.StatusCode, body)
		}
		var out service.CheckResponse
		decodeJSON(t, body, &out)
		if out.Decisions[0].Allowed != wantAllowed {
			t.Fatalf("allowed=%v, want %v: %+v", out.Decisions[0].Allowed, wantAllowed, out.Decisions[0])
		}
	}

	check(true) // ring 4 is inside data's read bracket (R2=4)

	// Narrow the read bracket to ring 1: same flags, new brackets.
	resp, body := postJSON(t, ts.URL+"/v1/mutate", mutateRequest{
		Op: "setbrackets", Segment: "data", Read: true, Write: true, R1: 1, R2: 1, R3: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, body)
	}
	var mr mutateResponse
	decodeJSON(t, body, &mr)
	if !mr.OK || mr.Version != 2 {
		t.Fatalf("mutate response %+v, want OK at version 2", mr)
	}
	check(false) // every batch after the publish pins the new snapshot

	// Revoke, observe, restore, observe.
	if resp, body = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "revoke", Segment: "data"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("revoke: status %d: %s", resp.StatusCode, body)
	}
	check(false)
	if resp, body = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "restore", Segment: "data"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "setbrackets", Segment: "data", Read: true, Write: true, R1: 2, R2: 4, R3: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("widen: status %d: %s", resp.StatusCode, body)
	}
	check(true)

	// Error paths: unknown segment (404), bad brackets, unknown op,
	// a segment number outside the image, a GET.
	for _, c := range []struct {
		name string
		req  mutateRequest
		want int
	}{
		{"unknown segment", mutateRequest{Op: "revoke", Segment: "nonesuch"}, http.StatusNotFound},
		{"bad brackets", mutateRequest{Op: "setbrackets", Segment: "data", R1: 4, R2: 2, R3: 1}, http.StatusBadRequest},
		{"unknown op", mutateRequest{Op: "transmogrify", Segment: "data"}, http.StatusBadRequest},
		{"segno outside the image", mutateRequest{Op: "revoke", Segno: 99}, http.StatusBadRequest},
	} {
		if resp, body := postJSON(t, ts.URL+"/v1/mutate", c.req); resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.want, body)
		}
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/mutate", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/mutate: status %d, want 405", code)
	}
}

// TestHTTPHealthzAndMetrics checks the observability endpoints: the
// image shape in /healthz, and one /metrics document — the service
// snapshot plus the lease counters — whatever the method.
func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{}, TenantConfig{Workers: 3})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var hr service.Health
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if !hr.OK || hr.Workers != 3 || hr.Segments != 3 || hr.Shards != 8 {
		t.Errorf("healthz %+v", hr)
	}

	// Some traffic, then metrics.
	req := service.NewCheckRequest([]service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 7, Segment: "secret", Kind: core.AccessRead},
	})
	for i := 0; i < 4; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/check", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("check: status %d: %s", resp.StatusCode, body)
		}
	}
	var docs [2][]byte
	for i, method := range []string{"GET", "POST"} {
		r, err := http.NewRequest(method, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatalf("%s /metrics: %v", method, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /metrics: status %d: %s", method, resp.StatusCode, buf.String())
		}
		docs[i] = buf.Bytes()
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("POST /metrics differs from GET:\n%s\nvs\n%s", docs[1], docs[0])
	}
	var m struct {
		service.Snapshot
		Leases *SubscriptionStats `json:"leases"`
	}
	decodeJSON(t, docs[0], &m)
	snap := m.Snapshot
	if snap.Batches != 4 || snap.Queries != 8 || snap.Allowed != 4 || snap.Denied != 4 {
		t.Errorf("metrics counts: %+v", snap)
	}
	if snap.Reads.Pins == 0 || snap.Reads.Lookups == 0 {
		t.Error("metrics report no snapshot-read activity")
	}
	if len(snap.LatencyNs) == 0 {
		t.Error("metrics report no latency buckets")
	}
	if snap.Faults["outside_read_bracket"] != 4 {
		t.Errorf("faults: %v", snap.Faults)
	}
	if m.Leases == nil {
		t.Errorf("metrics lack the leases object: %s", docs[0])
	}
}

// TestHTTPGracefulShutdown checks that a check against a closed
// decision service answers 503 with an error body.
func TestHTTPGracefulShutdown(t *testing.T) {
	def, ts := newTestHandler(t, HandlerOptions{}, TenantConfig{Workers: 1})
	req := service.NewCheckRequest([]service.Query{{Op: service.OpAccess, Ring: 3, Segment: "data"}})
	if resp, body := postJSON(t, ts.URL+"/v1/check", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-close check: status %d: %s", resp.StatusCode, body)
	}
	def.Service().Close()
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close check: status %d, want 503: %s", resp.StatusCode, body)
	}
	var er errorResponse
	decodeJSON(t, body, &er)
	if er.Error == "" {
		t.Error("503 without error body")
	}
}
