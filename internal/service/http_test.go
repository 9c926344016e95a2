package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
)

// The service's HTTP face is tenant.Handler, which imports this
// package, so these suites drive it from the external test package.

// goldenDir holds the HTTP golden fixtures. The tenant handler's replay
// owns and regenerates them (go test ./internal/tenant -run Golden
// -update); the suites here only read them.
var goldenDir = filepath.Join("..", "tenant", "testdata", "golden")

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	return want
}

// TestHTTPGolden decodes the /healthz and /v1/check bodies the golden
// fixtures pin into this package's JSON schema, refusing unknown
// fields, and re-encodes them in the daemon's two-space style: a client
// decoding with these types reads every field the daemon writes, and
// the schema writes nothing the fixtures do not hold.
func TestHTTPGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		body interface{}
	}{
		{"healthz.json", &service.Health{}},
		{"check_ok.json", &service.CheckResponse{}},
		{"check_after_mutate.json", &service.CheckResponse{}},
	} {
		want := readGolden(t, tc.name)
		dec := json.NewDecoder(bytes.NewReader(want))
		dec.DisallowUnknownFields()
		if err := dec.Decode(tc.body); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		var got bytes.Buffer
		enc := json.NewEncoder(&got)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tc.body); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s does not round-trip through the schema\n--- got ---\n%s--- want ---\n%s",
				tc.name, got.Bytes(), want)
		}
	}
}

// postCheck posts a one-query batch to url's /v1/check and returns the
// response with its body read.
func postCheck(url string) (*http.Response, []byte, error) {
	body := `{"queries": [{"op": "access", "ring": 3, "segment": "data"}]}`
	resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, err = out.ReadFrom(resp.Body)
	return resp, out.Bytes(), err
}

// shedServer serves a default tenant with one worker and a one-batch
// queue, parks the worker on a first batch and queues a second, so the
// next batch posted is shed. It returns the server's URL and release,
// which frees the worker and returns the statuses of the two held
// batches.
func shedServer(t *testing.T) (string, func() []int) {
	t.Helper()
	reg := tenant.NewRegistry(tenant.Config{})
	def, err := reg.Load(tenant.DefaultTenant, service.TestSegments(),
		tenant.TenantConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatalf("load default tenant: %v", err)
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{})
	ts := httptest.NewServer(h)
	svc := def.Service()
	hold := make(chan struct{})
	ack := make(chan struct{}, 4)
	service.HoldWorkers(svc, hold, ack)
	var once sync.Once
	free := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(func() {
		free() // a Fatal must not leave the server's Close waiting on a parked worker
		ts.Close()
		h.Close()
	})

	statuses := make(chan int, 2)
	post := func() {
		resp, _, err := postCheck(ts.URL)
		if err != nil {
			statuses <- 0
			return
		}
		statuses <- resp.StatusCode
	}
	go post()
	<-ack // worker parked on the first batch; it cannot race the next one
	go post()
	service.WaitFor(t, "second batch to queue", func() bool { return svc.QueueLen() == 1 })

	release := func() []int {
		free()
		var got []int
		for i := 0; i < 2; i++ {
			select {
			case code := <-statuses:
				got = append(got, code)
			case <-time.After(5 * time.Second):
				t.Fatal("held batches did not complete after release")
			}
		}
		return got
	}
	return ts.URL, release
}

// TestHTTPGoldenQueueFull sheds a batch through the handler and pins
// the answer: 429, a Retry-After of one second, and the fixture body.
func TestHTTPGoldenQueueFull(t *testing.T) {
	url, _ := shedServer(t)
	resp, body, err := postCheck(url)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	if want := readGolden(t, "check_queue_full.json"); !bytes.Equal(body, want) {
		t.Errorf("shed body drifted from check_queue_full.json\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// TestHTTPBackpressure sheds a batch behind a held worker, then frees
// the worker: both held batches are answered, and the drained queue
// takes batches again.
func TestHTTPBackpressure(t *testing.T) {
	url, release := shedServer(t)
	resp, body, err := postCheck(url)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	for i, code := range release() {
		if code != http.StatusOK {
			t.Errorf("held batch %d: status %d, want 200", i, code)
		}
	}
	resp, body, err = postCheck(url)
	if err != nil {
		t.Fatalf("POST after drain: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after drain: status %d, want 200: %s", resp.StatusCode, body)
	}
}
