package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/tenant"
)

// readGolden loads a recorded HTTP fixture from the tenant handler's
// golden set and unmarshals it into v.
func readGolden(t *testing.T, name string, v interface{}) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "tenant", "testdata", "golden", name))
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
}

// stripWorker zeroes the worker attribution, the one decision field
// that legitimately differs between transports (it names whichever
// pool worker drained the batch).
func stripWorker(ds []service.Decision) []service.Decision {
	out := make([]service.Decision, len(ds))
	copy(out, ds)
	for i := range out {
		out[i].Worker = 0
	}
	return out
}

// TestDifferentialGoldenReplay replays the recorded HTTP golden
// session — the byte-for-byte fixtures the JSON API is pinned to —
// through the binary protocol, asserting decision-for-decision
// identical results. The JSON fixtures are the oracle: if this test
// passes, a wire client and an HTTP client querying the same image
// cannot disagree.
func TestDifferentialGoldenReplay(t *testing.T) {
	// Workers: 1 matches the server the fixtures were recorded
	// against, so even the worker attribution lines up.
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// healthz.json <-> ping frame.
	var health service.Health
	readGolden(t, "healthz.json", &health)
	h, err := c.Ping()
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if !health.OK || int(h.Workers) != health.Workers || int(h.Segments) != health.Segments ||
		int(h.Shards) != health.Shards || h.StoreVersion != health.Version {
		t.Errorf("ping = %+v, healthz fixture = %+v", h, health)
	}

	// check_ok.json <-> the six-query batch.
	var checkOK service.CheckResponse
	readGolden(t, "check_ok.json", &checkOK)
	got, err := c.Check(goldenQueries()...)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !reflect.DeepEqual(got, checkOK.Decisions) {
		t.Errorf("wire decisions diverge from check_ok.json:\n got %+v\nwant %+v", got, checkOK.Decisions)
	}

	// check_empty.json <-> error frame with the same message, same
	// 400 code the HTTP route answers.
	var fixtureErr struct {
		Error string `json:"error"`
	}
	readGolden(t, "check_empty.json", &fixtureErr)
	err = c.CheckInto(nil, nil)
	var ef *ErrFrame
	if !errors.As(err, &ef) || ef.Code != CodeBadRequest || ef.Msg != fixtureErr.Error {
		t.Errorf("empty batch on wire = %v, HTTP fixture says 400 %q", err, fixtureErr.Error)
	}

	// check_bad_kind.json has no wire equivalent by construction: the
	// frame's 2-bit kind field cannot carry HTTP's arbitrary kind
	// strings, so an unknown kind fails at the client encoder and
	// never crosses the wire. The nearest expressible probe — the one
	// unused 2-bit pattern — travels and is rejected per-decision by
	// the same evaluator path.
	if _, err := EncodeCheck(nil, 1, []service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: 4}}); err == nil {
		t.Error("unknown access kind was encodable")
	}
	badKind, err := c.Check(service.Query{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: 3})
	if err != nil {
		t.Fatalf("kind-3 probe: %v", err)
	}
	if badKind[0].Err != "invalid access kind 3" || badKind[0].Shard != -1 {
		t.Errorf("kind-3 probe decision = %+v", badKind[0])
	}

	// check_queue_full.json <-> the shed error frame's message
	// (internal/service's TestSessionBackpressureShed drives a live
	// shed and asserts code 429 with exactly this string).
	readGolden(t, "check_queue_full.json", &fixtureErr)
	if service.ErrQueueFull.Error() != fixtureErr.Error {
		t.Errorf("shed message %q, fixture %q", service.ErrQueueFull.Error(), fixtureErr.Error)
	}

	// mutate_ok.json <-> the same setbrackets mutation on the wire.
	var mutOK struct {
		OK      bool   `json:"ok"`
		Version uint64 `json:"version"`
	}
	readGolden(t, "mutate_ok.json", &mutOK)
	ver, err := c.Mutate(Mutation{Op: MutSetBrackets, Segment: "data", Read: true, Write: true,
		Brackets: core.Brackets{R1: 1, R2: 1, R3: 1}})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if !mutOK.OK || ver != mutOK.Version {
		t.Errorf("wire mutate version %d, mutate_ok.json says %d", ver, mutOK.Version)
	}

	// check_after_mutate.json <-> the post-mutation decision,
	// including the advanced version interval.
	var afterMut service.CheckResponse
	readGolden(t, "check_after_mutate.json", &afterMut)
	after, err := c.Check(service.Query{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: 3})
	if err != nil {
		t.Fatalf("check after mutate: %v", err)
	}
	if !reflect.DeepEqual(after, afterMut.Decisions) {
		t.Errorf("post-mutation wire decision diverges:\n got %+v\nwant %+v", after, afterMut.Decisions)
	}

	// mutate_unknown_segment.json <-> 404-coded error frame with the
	// identical message.
	readGolden(t, "mutate_unknown_segment.json", &fixtureErr)
	_, err = c.Mutate(Mutation{Op: MutRevoke, Segment: "nonesuch"})
	if !errors.As(err, &ef) || ef.Code != CodeNotFound || ef.Msg != fixtureErr.Error {
		t.Errorf("unknown segment on wire = %v, HTTP fixture says 404 %q", err, fixtureErr.Error)
	}
}

// httpCheck submits queries through the multi-tenant HTTP handler and
// returns the decisions.
func httpCheck(t *testing.T, url string, queries []service.Query) []service.Decision {
	t.Helper()
	body, err := json.Marshal(service.NewCheckRequest(queries))
	if err != nil {
		t.Fatalf("marshal check request: %v", err)
	}
	resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("http check: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("http check status %d", resp.StatusCode)
	}
	var out service.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode check response: %v", err)
	}
	return out.Decisions
}

// scriptMutation is one step of the deterministic mutation script the
// randomized differential applies to the "data" segment.
type scriptMutation struct {
	read, write, execute bool
	brackets             core.Brackets
	gates                uint32
}

func makeScript(n int, rng *rand.Rand) []scriptMutation {
	script := make([]scriptMutation, n)
	for i := range script {
		rs := []core.Ring{core.Ring(rng.Intn(8)), core.Ring(rng.Intn(8)), core.Ring(rng.Intn(8))}
		sort.Slice(rs, func(a, b int) bool { return rs[a] < rs[b] })
		script[i] = scriptMutation{
			read:     rng.Intn(4) != 0,
			write:    rng.Intn(2) == 0,
			execute:  rng.Intn(4) == 0,
			brackets: core.Brackets{R1: rs[0], R2: rs[1], R3: rs[2]},
			gates:    uint32(rng.Intn(4)),
		}
	}
	return script
}

func (m scriptMutation) wire() Mutation {
	return Mutation{Op: MutSetBrackets, Segment: "data", Read: m.read, Write: m.write,
		Execute: m.execute, Brackets: m.brackets, Gates: m.gates}
}

// TestDifferentialRandomizedTrace is the live half of the transport
// oracle argument (the T12 replay argument, lifted onto the wire):
// concurrent wire checkers race a mutator that alternates transports
// per step; every recorded decision must equal the spec model's answer
// after the script prefix the decision's epoch names. Run under -race
// in CI.
func TestDifferentialRandomizedTrace(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 4})
	_, addr := startWireServer(t, reg, Config{})
	hts := httptest.NewServer(tenant.NewHandler(reg, tenant.HandlerOptions{}))
	defer hts.Close()
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	script := makeScript(64, rand.New(rand.NewSource(17)))

	type record struct {
		q service.Query
		d service.Decision
	}
	const checkers = 4
	var (
		recmu   sync.Mutex
		records []record
		done    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for g := 0; g < checkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			dst := make([]service.Decision, 4)
			for {
				select {
				case <-done:
					return
				default:
				}
				queries := make([]service.Query, 1+rng.Intn(4))
				for i := range queries {
					q := service.Query{
						Op:     service.OpAccess,
						Ring:   core.Ring(rng.Intn(8)),
						Wordno: uint32(rng.Intn(16)),
						Kind:   core.AccessKind(rng.Intn(3)),
					}
					// Mutations target only "data" (segno 0); name-form
					// and segno-form must behave identically.
					if rng.Intn(2) == 0 {
						q.Segment = "data"
					}
					queries[i] = q
				}
				if err := c.CheckInto(queries, dst); err != nil {
					select {
					case <-done:
						return
					default:
						t.Errorf("checker %d: %v", g, err)
						return
					}
				}
				recmu.Lock()
				for i := range queries {
					d := dst[i]
					if d.VersionLo != d.VersionHi || d.VersionLo%2 != 0 {
						t.Errorf("torn snapshot interval [%d,%d] for %+v", d.VersionLo, d.VersionHi, queries[i])
					}
					records = append(records, record{queries[i], d})
				}
				recmu.Unlock()
			}
		}(g)
	}

	// The mutator: each script step travels over a different transport
	// than the one before it — the point being that transport choice
	// must not be observable in any decision.
	for k, m := range script {
		if k%2 == 0 {
			if _, err := c.Mutate(m.wire()); err != nil {
				t.Fatalf("wire mutation %d: %v", k, err)
			}
		} else {
			body, _ := json.Marshal(map[string]interface{}{
				"op": "setbrackets", "segment": "data",
				"read": m.read, "write": m.write, "execute": m.execute,
				"r1": m.brackets.R1, "r2": m.brackets.R2, "r3": m.brackets.R3,
				"gates": m.gates,
			})
			resp, err := http.Post(hts.URL+"/v1/mutate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("http mutation %d: %v", k, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("http mutation %d: status %d", k, resp.StatusCode)
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Replay every recorded decision on the spec model advanced through
	// the script prefix the decision's epoch names.
	tn, _ := reg.Get(tenant.DefaultTenant)
	model := spec.New(tn.Store().Shards(), testSegments())
	sort.SliceStable(records, func(i, j int) bool { return records[i].d.VersionLo < records[j].d.VersionLo })
	applied := 0
	var dataRecords int
	for _, rec := range records {
		k := int(rec.d.VersionLo / 2)
		if k > len(script) {
			t.Fatalf("decision reports version %d beyond the %d-step script", rec.d.VersionLo, len(script))
		}
		for applied < k {
			m := script[applied]
			if err := model.SetBrackets(0, m.read, m.write, m.execute, m.brackets, m.gates); err != nil {
				t.Fatalf("model mutation %d: %v", applied, err)
			}
			applied++
		}
		g, w := rec.d, model.Decide(rec.q)
		g.Worker = 0
		if g != w {
			t.Fatalf("decision diverges from the model at version %d:\nquery %+v\n live %+v\nwant %+v",
				rec.d.VersionLo, rec.q, g, w)
		}
		dataRecords++
	}
	if dataRecords < 100 {
		t.Errorf("only %d decisions recorded; the race window never opened", dataRecords)
	}
	t.Logf("replayed %d decisions across %d mutations", dataRecords, len(script))

	// Quiesced cross-transport battery: the final store must answer a
	// fixed query set identically over HTTP and over the wire.
	battery := goldenQueries()
	for ring := 0; ring < 8; ring++ {
		for segno := uint32(0); segno < 3; segno++ {
			for kind := 0; kind < 3; kind++ {
				battery = append(battery, service.Query{Op: service.OpAccess,
					Ring: core.Ring(ring), Segno: segno, Wordno: 1, Kind: core.AccessKind(kind)})
			}
		}
		battery = append(battery,
			service.Query{Op: service.OpCall, Ring: core.Ring(ring), Segment: "code", Wordno: 1},
			service.Query{Op: service.OpReturn, Ring: core.Ring(ring), Segment: "data", EffRing: ringp(core.Ring(ring))},
		)
	}
	wireDs, err := c.Check(battery...)
	if err != nil {
		t.Fatalf("wire battery: %v", err)
	}
	httpDs := httpCheck(t, hts.URL, battery)
	if len(httpDs) != len(battery) {
		t.Fatalf("http battery answered %d of %d", len(httpDs), len(battery))
	}
	gotW, gotH := stripWorker(wireDs), stripWorker(httpDs)
	for i := range battery {
		if gotW[i] != gotH[i] {
			t.Errorf("battery %d (%+v):\n wire %+v\n http %+v", i, battery[i], gotW[i], gotH[i])
		}
	}
}
