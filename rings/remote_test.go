package rings_test

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

// remoteFixture serves checkerImage() over both transports from one
// registry: an httptest server for the JSON surface and a loopback
// wire.Server for the binary streaming surface.
type remoteFixture struct {
	reg      *tenant.Registry
	def      *tenant.Tenant
	httpURL  string
	wireAddr string
}

func startRemoteFixture(t *testing.T) *remoteFixture {
	t.Helper()
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 4, WorkerBudget: 8})
	def, err := reg.Load(tenant.DefaultTenant, checkerImage(), tenant.TenantConfig{Workers: 1})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{})
	hs := httptest.NewServer(h)
	t.Cleanup(func() {
		hs.Close()
		h.Close()
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ws := wire.NewServer(reg, wire.Config{})
	go ws.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
	})
	return &remoteFixture{reg: reg, def: def, httpURL: hs.URL, wireAddr: ln.Addr().String()}
}

// remoteQueries is a small batch covering access, downward call, and
// effective-ring evaluation against checkerImage().
func remoteQueries() []rings.Query {
	return []rings.Query{
		{Op: rings.OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: rings.AccessRead},
		{Op: rings.OpAccess, Ring: 6, Segment: "secret", Kind: rings.AccessRead},
		{Op: rings.OpCall, Ring: 5, Segment: "code", Wordno: 1},
		{Op: rings.OpEffRing, Ring: 2, Chain: []rings.ChainStep{{Ring: 5, Segno: 0}, {PR: true, Ring: 6}}},
	}
}

// TestDialRemoteBothTransports checks the two remote modes answer the
// same batch identically (worker indices aside) and match the
// in-process oracle.
func TestDialRemoteBothTransports(t *testing.T) {
	fx := startRemoteFixture(t)
	queries := remoteQueries()
	want, err := fx.def.Submit(context.Background(), queries)
	if err != nil {
		t.Fatalf("in-process Submit: %v", err)
	}

	for _, tc := range []struct {
		name, target string
		cfg          rings.RemoteConfig
	}{
		{"http-inferred", fx.httpURL, rings.RemoteConfig{}},
		{"http-explicit", fx.httpURL, rings.RemoteConfig{Transport: "http"}},
		{"wire-inferred", fx.wireAddr, rings.RemoteConfig{}},
		{"wire-scheme", "wire://" + fx.wireAddr, rings.RemoteConfig{}},
		{"wire-explicit", fx.wireAddr, rings.RemoteConfig{Transport: "wire"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc, err := rings.DialRemote(tc.target, tc.cfg)
			if err != nil {
				t.Fatalf("DialRemote: %v", err)
			}
			defer rc.Close()

			h, err := rc.Health()
			if err != nil {
				t.Fatalf("Health: %v", err)
			}
			if h.Segments != 3 || h.Workers != 1 || h.Shards != 8 {
				t.Errorf("health = %+v", h)
			}

			got, err := rc.Check(queries...)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			for i := range got {
				got[i].Worker, want[i].Worker = 0, 0
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("decisions diverge from in-process:\n got %+v\nwant %+v", got, want)
			}

			dst := make([]rings.Decision, len(queries))
			if err := rc.CheckInto(queries, dst); err != nil {
				t.Fatalf("CheckInto: %v", err)
			}
			if !dst[0].Allowed || dst[1].Allowed {
				t.Errorf("CheckInto decisions: %+v", dst[:2])
			}
		})
	}
}

// TestDialRemoteTenantRouting checks cfg.Tenant scopes both transports
// to the named image, not the default one.
func TestDialRemoteTenantRouting(t *testing.T) {
	fx := startRemoteFixture(t)
	if _, err := fx.reg.Load("acct", []rings.Segment{
		{Name: "ledger", Size: 64, Read: true, Write: true,
			Brackets: rings.Brackets{R1: 1, R2: 3, R3: 3}},
	}, tenant.TenantConfig{Workers: 1}); err != nil {
		t.Fatalf("Load acct: %v", err)
	}
	q := rings.Query{Op: rings.OpAccess, Ring: 2, Segment: "ledger", Kind: rings.AccessRead}

	for _, tc := range []struct {
		name, target string
		transport    string
	}{
		{"http", fx.httpURL, "http"},
		{"wire", fx.wireAddr, "wire"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc, err := rings.DialRemote(tc.target, rings.RemoteConfig{Transport: tc.transport, Tenant: "acct"})
			if err != nil {
				t.Fatalf("DialRemote: %v", err)
			}
			defer rc.Close()
			if h, err := rc.Health(); err != nil || h.Segments != 1 {
				t.Fatalf("acct health = %+v, %v", h, err)
			}
			ds, err := rc.Check(q)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if !ds[0].Allowed || ds[0].Err != "" {
				t.Errorf("ledger read in ring 2: %+v", ds[0])
			}

			// The default tenant must not resolve acct's segment name.
			def, err := rings.DialRemote(tc.target, rings.RemoteConfig{Transport: tc.transport})
			if err != nil {
				t.Fatalf("DialRemote default: %v", err)
			}
			defer def.Close()
			ds, err = def.Check(q)
			if err != nil {
				t.Fatalf("default Check: %v", err)
			}
			if ds[0].Err == "" {
				t.Errorf("default tenant resolved %q: %+v", q.Segment, ds[0])
			}
		})
	}
}

// TestDialRemoteTenantNamePunctuation reaches a tenant whose name
// uses every punctuation mark a name may hold over both transports:
// each valid name is its own URL path segment.
func TestDialRemoteTenantNamePunctuation(t *testing.T) {
	fx := startRemoteFixture(t)
	const name = "a-b.c_d~e"
	if _, err := fx.reg.Load(name, []rings.Segment{
		{Name: "ledger", Size: 64, Read: true, Brackets: rings.Brackets{R1: 1, R2: 3, R3: 3}},
	}, tenant.TenantConfig{Workers: 1}); err != nil {
		t.Fatalf("Load %q: %v", name, err)
	}
	q := rings.Query{Op: rings.OpAccess, Ring: 2, Segment: "ledger", Kind: rings.AccessRead}
	for _, tc := range []struct{ transport, target string }{
		{"http", fx.httpURL},
		{"wire", fx.wireAddr},
	} {
		t.Run(tc.transport, func(t *testing.T) {
			rc, err := rings.DialRemote(tc.target, rings.RemoteConfig{Transport: tc.transport, Tenant: name})
			if err != nil {
				t.Fatalf("DialRemote: %v", err)
			}
			defer rc.Close()
			if h, err := rc.Health(); err != nil || h.Segments != 1 {
				t.Fatalf("%q health = %+v, %v", name, h, err)
			}
			ds, err := rc.Check(q)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if !ds[0].Allowed || ds[0].Err != "" {
				t.Errorf("ledger read in ring 2: %+v", ds[0])
			}
		})
	}
}

// TestRemoteUnknownKindNeverAllowed sends access kinds outside read,
// write and execute down every path — in-process, HTTP, wire, and wire
// behind a lease cache — for a reference that a read would pass. No
// path may answer Allowed: each rejects the batch or the query.
func TestRemoteUnknownKindNeverAllowed(t *testing.T) {
	fx := startRemoteFixture(t)
	chk, err := rings.NewChecker(checkerImage())
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	defer chk.Close()
	type checker interface {
		Check(queries ...rings.Query) ([]rings.Decision, error)
	}
	paths := []struct {
		name string
		c    checker
	}{{"in-process", chk}}
	for _, d := range []struct {
		name, target string
		cfg          rings.RemoteConfig
	}{
		{"http", fx.httpURL, rings.RemoteConfig{}},
		{"wire", fx.wireAddr, rings.RemoteConfig{}},
		{"wire-cached", fx.wireAddr, rings.RemoteConfig{CacheSize: 64}},
	} {
		rc, err := rings.DialRemote(d.target, d.cfg)
		if err != nil {
			t.Fatalf("DialRemote %s: %v", d.name, err)
		}
		defer rc.Close()
		paths = append(paths, struct {
			name string
			c    checker
		}{d.name, rc})
	}
	for _, kind := range []rings.AccessKind{3, 7} {
		q := rings.Query{Op: rings.OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: kind}
		for _, p := range paths {
			ds, err := p.c.Check(q)
			if err == nil && (ds[0].Allowed || ds[0].Err == "") {
				t.Errorf("%s: kind %d answered %+v", p.name, kind, ds[0])
			}
		}
	}
}

// TestDialRemoteErrors covers the transport vocabulary's edges: unknown
// transport names, unreachable wire targets, and remote error bodies
// surfacing as errors on both transports.
func TestDialRemoteErrors(t *testing.T) {
	fx := startRemoteFixture(t)
	if _, err := rings.DialRemote("localhost:1", rings.RemoteConfig{Transport: "carrier-pigeon"}); err == nil {
		t.Error("unknown transport: want error")
	}
	if _, err := rings.DialRemote("wire://127.0.0.1:1", rings.RemoteConfig{Timeout: time.Second}); err == nil {
		t.Error("unreachable wire target: want dial error")
	}
	if _, err := rings.DialRemote(fx.wireAddr, rings.RemoteConfig{Tenant: "ghost"}); err == nil {
		t.Error("unknown wire tenant: want handshake error")
	}

	for _, transport := range []string{"http", "wire"} {
		target := fx.httpURL
		if transport == "wire" {
			target = fx.wireAddr
		}
		rc, err := rings.DialRemote(target, rings.RemoteConfig{Transport: transport})
		if err != nil {
			t.Fatalf("DialRemote %s: %v", transport, err)
		}
		// An empty batch is a remote-side 400 on both transports.
		if err := rc.CheckInto(nil, nil); err == nil {
			t.Errorf("%s: empty batch: want error", transport)
		}
		rc.Close()
	}
}

// TestRemoteWireShedMapsToErrQueueFull checks the wire transport's shed
// frame folds back to the rings.ErrQueueFull in-process callers match
// on. A 1-worker, depth-1 tenant is plugged by oversized in-process
// batches while the remote client submits.
func TestRemoteWireShedMapsToErrQueueFull(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: 1})
	tnt, err := reg.Load(tenant.DefaultTenant, checkerImage(), tenant.TenantConfig{
		Workers: 1, QueueDepth: 1, BatchLimit: 4096,
	})
	if err != nil {
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

	rc, err := rings.DialRemote(ln.Addr().String(), rings.RemoteConfig{})
	if err != nil {
		t.Fatalf("DialRemote: %v", err)
	}
	defer rc.Close()

	big := make([]rings.Query, 4096)
	for i := range big {
		big[i] = rings.Query{Op: rings.OpAccess, Ring: 4, Segno: 0, Kind: rings.AccessRead}
	}
	// Three blockers keep the single worker busy AND the depth-1 queue
	// occupied; a lone blocker would drain the queue between its own
	// submissions and the remote client would never observe a shed.
	stop := make(chan struct{})
	var blockers sync.WaitGroup
	for i := 0; i < 3; i++ {
		blockers.Add(1)
		go func() {
			defer blockers.Done()
			dst := make([]rings.Decision, len(big))
			for {
				select {
				case <-stop:
					return
				default:
					tnt.SubmitInto(context.Background(), big, dst)
				}
			}
		}()
	}

	dst := make([]rings.Decision, 1)
	q := []rings.Query{{Op: rings.OpAccess, Ring: 4, Segment: "data", Kind: rings.AccessRead}}
	sawShed := false
	deadline := time.Now().Add(3 * time.Second)
	for !sawShed && time.Now().Before(deadline) {
		err := rc.CheckInto(q, dst)
		switch {
		case err == nil:
		case errors.Is(err, rings.ErrQueueFull):
			sawShed = true
		default:
			t.Fatalf("CheckInto: unexpected error %v", err)
		}
	}
	close(stop)
	blockers.Wait()
	if !sawShed {
		t.Skip("queue never filled; timing-dependent, not a correctness failure")
	}
}
