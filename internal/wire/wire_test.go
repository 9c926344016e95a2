package wire

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/tenant"
)

// testSegments mirrors the image internal/service's tests (and the
// golden HTTP fixtures) are generated against, so wire decisions are
// comparable decision-for-decision with the recorded JSON.
func testSegments() []service.Segment {
	return []service.Segment{
		{Name: "data", Size: 16, Read: true, Write: true,
			Brackets: core.Brackets{R1: 2, R2: 4, R3: 4}},
		{Name: "code", Size: 32, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: 2},
		{Name: "secret", Size: 8, Read: true,
			Brackets: core.Brackets{R1: 0, R2: 1, R3: 1}},
	}
}

// newTestRegistry loads testSegments as the default tenant.
func newTestRegistry(t testing.TB, tcfg tenant.TenantConfig) *tenant.Registry {
	t.Helper()
	reg := tenant.NewRegistry(tenant.Config{})
	if _, err := reg.Load(tenant.DefaultTenant, testSegments(), tcfg); err != nil {
		t.Fatalf("load default tenant: %v", err)
	}
	t.Cleanup(reg.Close)
	return reg
}

// startWireServer serves reg on a loopback listener and returns its
// address. The server is drained at cleanup.
func startWireServer(t *testing.T, reg *tenant.Registry, cfg Config) (*Server, string) {
	t.Helper()
	srv := NewServer(reg, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

// dialRaw opens a raw TCP connection and completes the Hello/Welcome
// handshake manually, returning the connection for byte-level frame
// tests.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	hello, err := EncodeHello(nil, Hello{MinVersion: Version, MaxVersion: Version})
	if err != nil {
		t.Fatalf("encode hello: %v", err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	h, _, err := readConnFrame(t, conn)
	if err != nil {
		t.Fatalf("read welcome: %v", err)
	}
	if h.Type != FrameWelcome {
		t.Fatalf("handshake answered %v, want welcome", h.Type)
	}
	return conn
}

// readConnFrame reads one frame off conn with a test deadline.
func readConnFrame(t *testing.T, conn net.Conn) (Header, []byte, error) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	h, payload, err := readFrame(conn, &buf, DefaultMaxFrame)
	if err != nil {
		return h, nil, err
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return h, out, nil
}

// ringp returns a pointer to r (EffRing literals in test queries).
func ringp(r core.Ring) *core.Ring { return &r }

// goldenQueries is the check_ok.json batch: every op, allowed and
// denied accesses, a gate call with a ring switch, a return, an
// effective-ring chain.
func goldenQueries() []service.Query {
	return []service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 5, Segment: "data", Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 7, Segment: "secret", Kind: core.AccessRead},
		{Op: service.OpCall, Ring: 4, Segment: "code", Wordno: 1},
		{Op: service.OpReturn, Ring: 2, Segment: "code", EffRing: ringp(3)},
		{Op: service.OpEffRing, Ring: 2, Chain: []service.ChainStep{{PR: true, Ring: 3}}},
	}
}
