package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/tenant"
)

func TestClientCheckMutatePing(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	w := c.Welcome()
	if w.Version != Version || w.Segments != 3 || w.Shards != 8 || w.Workers != 1 || w.StoreVersion != 0 {
		t.Errorf("welcome = %+v", w)
	}

	ds, err := c.Check(goldenQueries()...)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	tnt, _ := reg.Get(tenant.DefaultTenant)
	want, err := tnt.Submit(context.Background(), goldenQueries())
	if err != nil {
		t.Fatalf("in-process submit: %v", err)
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Errorf("decision %d: wire %+v, in-process %+v", i, ds[i], want[i])
		}
	}

	ver, err := c.Mutate(Mutation{Op: MutSetBrackets, Segment: "data", Read: true, Write: true,
		Brackets: core.Brackets{R1: 1, R2: 1, R3: 1}})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if ver != 2 {
		t.Errorf("store version after mutate = %d, want 2", ver)
	}
	after, err := c.Check(service.Query{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: 3})
	if err != nil {
		t.Fatalf("check after mutate: %v", err)
	}
	if after[0].Allowed || after[0].VersionLo != 2 || after[0].VersionHi != 2 {
		t.Errorf("post-mutation decision = %+v", after[0])
	}

	h, err := c.Ping()
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if h.StoreVersion != 2 || h.Segments != 3 {
		t.Errorf("pong health = %+v", h)
	}

	// Semantic rejections answer error frames and keep the session
	// usable.
	if _, err := c.Mutate(Mutation{Op: MutRevoke, Segment: "nonesuch"}); err == nil {
		t.Error("mutate of unknown segment succeeded")
	} else {
		var ef *ErrFrame
		if !errors.As(err, &ef) || ef.Code != CodeNotFound || ef.Msg != `unknown segment "nonesuch"` {
			t.Errorf("unknown segment error = %v", err)
		}
	}
	if err := c.CheckInto(nil, nil); err == nil {
		t.Error("empty batch succeeded")
	} else {
		var ef *ErrFrame
		if !errors.As(err, &ef) || ef.Code != CodeBadRequest || ef.Msg != "empty batch" {
			t.Errorf("empty batch error = %v", err)
		}
	}
	if _, err := c.Check(service.Query{Op: service.OpAccess, Ring: 1, Segment: "data"}); err != nil {
		t.Errorf("session unusable after semantic errors: %v", err)
	}
}

// TestMutateOutsideImage checks that a raw segment number naming no
// segment of the image cannot be edited: every op answers an error
// frame, no epoch moves, the number still decides as a missing
// segment, and the session keeps answering checks.
func TestMutateOutsideImage(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	probe := service.Query{Op: service.OpAccess, Ring: 1, Segment: "data", Kind: core.AccessRead}
	for _, segno := range []uint32{3, 100, 256, 16383} {
		for _, m := range []Mutation{
			{Op: MutRevoke, Segno: segno},
			{Op: MutRestore, Segno: segno},
			{Op: MutSetBrackets, Segno: segno, Read: true, Brackets: core.Brackets{R1: 1, R2: 1, R3: 1}},
		} {
			var ef *ErrFrame
			if _, err := c.Mutate(m); !errors.As(err, &ef) || ef.Code != CodeBadRequest {
				t.Errorf("mutation %+v: err = %v, want a bad-request error frame", m, err)
			}
			if ds, err := c.Check(probe); err != nil || !ds[0].Allowed {
				t.Fatalf("check after mutation %+v: %+v, %v", m, ds, err)
			}
		}
		ds, err := c.Check(service.Query{Op: service.OpAccess, Ring: 0, Segno: segno, Kind: core.AccessRead})
		if err != nil {
			t.Fatalf("check of segno %d: %v", segno, err)
		}
		if ds[0].ViolationKind != core.ViolationMissingSegment || ds[0].VersionLo != 0 {
			t.Errorf("segno %d after rejected edits: %+v, want a missing segment at epoch 0", segno, ds[0])
		}
	}
	if h, err := c.Ping(); err != nil || h.StoreVersion != 0 {
		t.Errorf("store version after rejected edits: %+v, %v", h, err)
	}
}

func TestClientPipelinesOutOfOrder(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 4})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := []service.Query{
				{Op: service.OpAccess, Ring: 3, Segno: uint32(g % 3), Wordno: 1},
				{Op: service.OpCall, Ring: 4, Segno: 1, Wordno: 1},
			}
			dst := make([]service.Decision, len(queries))
			for i := 0; i < rounds; i++ {
				if err := c.CheckInto(queries, dst); err != nil {
					errc <- err
					return
				}
				if dst[1].Outcome != core.CallDownward.String() {
					errc <- errors.New("wrong decision for pipelined call query")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestHandshakeRejections(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})

	// expectHandshakeError writes raw as the first bytes and asserts
	// the server answers a session-level Error frame with code, then
	// closes.
	expectHandshakeError := func(t *testing.T, raw []byte, code uint16) {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatalf("write: %v", err)
		}
		h, payload, err := readConnFrame(t, conn)
		if err != nil {
			t.Fatalf("read error frame: %v", err)
		}
		if h.Type != FrameError || h.Corr != 0 {
			t.Fatalf("answered %v corr %d, want session error", h.Type, h.Corr)
		}
		e, err := decodeError(payload)
		if err != nil {
			t.Fatalf("decode error frame: %v", err)
		}
		if e.Code != code {
			t.Errorf("error code %d (%q), want %d", e.Code, e.Msg, code)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var buf []byte
		if _, _, err := readFrame(conn, &buf, DefaultMaxFrame); err == nil {
			t.Error("session stayed open after handshake rejection")
		}
	}

	t.Run("not hello", func(t *testing.T) {
		expectHandshakeError(t, EncodePing(nil, 1), CodeBadRequest)
	})
	t.Run("bad magic", func(t *testing.T) {
		hello, err := EncodeHello(nil, Hello{MinVersion: 1, MaxVersion: 1})
		if err != nil {
			t.Fatal(err)
		}
		hello[HeaderLen] ^= 0xFF
		expectHandshakeError(t, hello, CodeBadRequest)
	})
	t.Run("disjoint versions", func(t *testing.T) {
		hello, err := EncodeHello(nil, Hello{MinVersion: Version + 1, MaxVersion: Version + 4})
		if err != nil {
			t.Fatal(err)
		}
		expectHandshakeError(t, hello, CodeBadRequest)
	})
	t.Run("unknown tenant", func(t *testing.T) {
		hello, err := EncodeHello(nil, Hello{MinVersion: 1, MaxVersion: 1, Tenant: "ghost"})
		if err != nil {
			t.Fatal(err)
		}
		expectHandshakeError(t, hello, CodeNotFound)
	})
	t.Run("client surfaces rejection", func(t *testing.T) {
		_, err := Dial(addr, ClientConfig{Tenant: "ghost"})
		var ef *ErrFrame
		if !errors.As(err, &ef) || ef.Code != CodeNotFound {
			t.Errorf("dial to unknown tenant = %v", err)
		}
	})
}

// TestCheckOnEvictedTenantNotFound checks a batch on a session whose
// tenant was evicted after the handshake: the answer is code 404, as
// the HTTP surface answers an evicted tenant, and the session stays
// open.
func TestCheckOnEvictedTenantNotFound(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := reg.Evict(tenant.DefaultTenant); err != nil {
		t.Fatalf("evict: %v", err)
	}
	_, err = c.Check(service.Query{Op: service.OpAccess, Ring: 3, Segment: "data"})
	var ef *ErrFrame
	if !errors.As(err, &ef) || ef.Code != CodeNotFound || ef.Msg != tenant.ErrTenantNotFound.Error() {
		t.Errorf("check on an evicted tenant = %v, want code %d %q", err, CodeNotFound, tenant.ErrTenantNotFound.Error())
	}
	if _, err := c.Ping(); err != nil {
		t.Errorf("ping after the rejected check: %v", err)
	}
}

// TestPayloadOnEmptyFrameRejected sends, after the handshake, a Ping
// and a Subscribe that each carry a payload their type forbids, as
// DecodeFrame rules: the session answers Error 400 and closes.
func TestPayloadOnEmptyFrameRejected(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	for _, typ := range []FrameType{FramePing, FrameSubscribe} {
		t.Run(typ.String(), func(t *testing.T) {
			conn := dialRaw(t, addr)
			frame := make([]byte, HeaderLen+8)
			PutHeader(frame, Header{Len: 8, Type: typ, Corr: 7})
			if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("DecodeFrame = %v, want ErrBadFrame", err)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatalf("write: %v", err)
			}
			h, payload, err := readConnFrame(t, conn)
			if err != nil {
				t.Fatalf("read answer: %v", err)
			}
			if h.Type != FrameError || h.Corr != 7 {
				t.Fatalf("answered %v corr %d, want error corr 7", h.Type, h.Corr)
			}
			if e, err := decodeError(payload); err != nil || e.Code != CodeBadRequest {
				t.Errorf("error frame = %+v, %v; want code %d", e, err, CodeBadRequest)
			}
			if _, _, err := readConnFrame(t, conn); err == nil {
				t.Error("session stayed open after the malformed frame")
			}
		})
	}
}

func TestSealedTenantOnWire(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	if err := reg.Seal(tenant.DefaultTenant); err != nil {
		t.Fatalf("seal: %v", err)
	}
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial to sealed tenant: %v", err)
	}
	defer c.Close()
	if _, err := c.Check(service.Query{Op: service.OpAccess, Ring: 3, Segment: "data"}); err != nil {
		t.Errorf("check against sealed tenant: %v", err)
	}
	// The seal race on the wire: a 409-equivalent error frame, exactly
	// the HTTP conflict mapping.
	_, err = c.Mutate(Mutation{Op: MutRevoke, Segment: "data"})
	var ef *ErrFrame
	if !errors.As(err, &ef) || ef.Code != CodeConflict || ef.Msg != tenant.ErrSealed.Error() {
		t.Errorf("mutate against sealed tenant = %v, want 409 %q", err, tenant.ErrSealed.Error())
	}
	tnt, _ := reg.Get(tenant.DefaultTenant)
	if tnt.DeniedMutations() == 0 {
		t.Error("wire mutation denial not counted")
	}
}

func TestSessionTornFrame(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	srv, addr := startWireServer(t, reg, Config{})
	conn := dialRaw(t, addr)
	frame, err := EncodeCheck(nil, 1, goldenQueries())
	if err != nil {
		t.Fatal(err)
	}
	// Tear the frame mid-payload and drop the connection.
	if _, err := conn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatalf("write torn frame: %v", err)
	}
	conn.Close()

	// The server must shrug the torn session off: a fresh session
	// still serves, and a drain completes promptly (no goroutine is
	// stuck on the dead connection).
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial after torn frame: %v", err)
	}
	if _, err := c.Check(service.Query{Op: service.OpAccess, Ring: 3, Segment: "data"}); err != nil {
		t.Errorf("check after torn frame: %v", err)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown after torn frame: %v", err)
	}
}

func TestSessionOversizeFrameRejectedBeforeAllocation(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{MaxFrame: 1024})
	conn := dialRaw(t, addr)

	// A hostile length prefix: 1 GiB announced, nothing sent. The
	// bound check runs before any payload buffer grows, so the server
	// answers an error frame immediately instead of trying to read or
	// allocate the announced gigabyte.
	var hdr [HeaderLen]byte
	PutHeader(hdr[:], Header{Len: 1 << 30, Type: FrameCheck, Corr: 5})
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write header: %v", err)
	}
	h, payload, err := readConnFrame(t, conn)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if h.Type != FrameError {
		t.Fatalf("answered %v, want error frame", h.Type)
	}
	e, err := decodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBadRequest || e.Msg != ErrFrameTooLarge.Error() {
		t.Errorf("oversize answer = %d %q", e.Code, e.Msg)
	}
	var buf []byte
	if _, _, err := readFrame(conn, &buf, DefaultMaxFrame); err == nil {
		t.Error("session stayed open after oversize frame")
	}
}

// TestGracefulDrainKeepsAcceptedBatches shuts the server down while
// clients are mid-pipeline: Shutdown must drain (not force-close),
// every call must resolve (complete or ErrGoAway — never hang), and
// the stream must end with GoAway after the last response.
func TestGracefulDrainKeepsAcceptedBatches(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 2})
	srv, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines = 6
	var completed, cut int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queries := []service.Query{{Op: service.OpAccess, Ring: 3, Segno: 0, Wordno: 1}}
			dst := make([]service.Decision, 1)
			for {
				err := c.CheckInto(queries, dst)
				mu.Lock()
				if err == nil {
					if !dst[0].Allowed {
						t.Error("drained mid-batch: wrong decision")
					}
					completed++
				} else {
					cut++
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	wg.Wait()
	if completed == 0 {
		t.Error("no call completed before drain")
	}
	t.Logf("completed %d calls, %d cut by drain", completed, cut)
}

// TestGoAwayIsLastFrame drives the drain at the byte level: after
// Shutdown, the stream is zero or more responses, then exactly one
// GoAway, then EOF.
func TestGoAwayIsLastFrame(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	srv, addr := startWireServer(t, reg, Config{})
	conn := dialRaw(t, addr)

	var wbuf []byte
	for corr := uint64(1); corr <= 32; corr++ {
		b, err := EncodeCheck(wbuf, corr, []service.Query{
			{Op: service.OpAccess, Ring: 3, Segno: 0, Wordno: 1}})
		if err != nil {
			t.Fatal(err)
		}
		wbuf = b
		if _, err := conn.Write(b); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	sawGoAway := false
	var rbuf []byte
	for {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		h, _, err := readFrame(conn, &rbuf, DefaultMaxFrame)
		if err != nil {
			break
		}
		if sawGoAway {
			t.Fatalf("frame %v after goaway", h.Type)
		}
		switch h.Type {
		case FrameDecisions:
		case FrameGoAway:
			sawGoAway = true
		default:
			t.Fatalf("unexpected frame %v during drain", h.Type)
		}
	}
	if !sawGoAway {
		t.Error("drain ended without goaway")
	}
	if err := <-done; err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// scriptConn is a net.Conn whose reads replay chunks, each Read taking
// as much of the current chunk as fits, and fail once a past read
// deadline is set; writes are recorded and counted. onLast runs once,
// right after the first Read that takes bytes from the last chunk. A
// Read of the last chunk first waits until the conn has taken holdLast
// writes.
type scriptConn struct {
	nopConn
	mu       sync.Mutex
	wrote    sync.Cond // broadcast by Write and SetReadDeadline
	chunks   [][]byte
	deadline time.Time
	onLast   func()
	holdLast int
	out      bytes.Buffer
	writes   int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote.L = &c.mu
	for len(c.chunks) == 1 && c.writes < c.holdLast && !c.pastDeadline() {
		c.wrote.Wait()
	}
	if c.pastDeadline() {
		c.mu.Unlock()
		return 0, os.ErrDeadlineExceeded
	}
	if len(c.chunks) == 0 {
		c.mu.Unlock()
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	var hook func()
	if len(c.chunks) == 1 {
		hook, c.onLast = c.onLast, nil
	}
	if len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	return n, nil
}

func (c *scriptConn) pastDeadline() bool {
	return !c.deadline.IsZero() && time.Now().After(c.deadline)
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	c.wrote.Broadcast()
	return c.out.Write(p)
}

func (c *scriptConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = t
	c.wrote.Broadcast()
	return nil
}

// scriptFrames encodes a session's input: Hello, then a check frame
// of one allowed query for each correlation ID.
func scriptFrames(t *testing.T, corrs ...uint64) (hello, checks []byte) {
	t.Helper()
	hello, err := EncodeHello(nil, Hello{MinVersion: Version, MaxVersion: Version})
	if err != nil {
		t.Fatal(err)
	}
	for _, corr := range corrs {
		b, err := EncodeCheck(nil, corr, []service.Query{{Op: service.OpAccess, Ring: 3, Segno: 0, Wordno: 1}})
		if err != nil {
			t.Fatal(err)
		}
		checks = append(checks, b...)
	}
	return hello, checks
}

// decodeFrames splits a session's output into frames.
func decodeFrames(t *testing.T, out []byte) []Frame {
	t.Helper()
	var fs []Frame
	for len(out) > 0 {
		f, n, err := DecodeFrame(out)
		if err != nil {
			t.Fatalf("session wrote an undecodable frame after %d frames: %v", len(fs), err)
		}
		fs = append(fs, f)
		out = out[n:]
	}
	return fs
}

// frameSeq renders frames as "type/corr" for comparison.
func frameSeq(fs []Frame) string {
	var b strings.Builder
	for i, f := range fs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v/%d", f.Type, f.Corr)
	}
	return b.String()
}

// TestSessionAnswersBurstInOneWrite: check frames that arrive in one
// read are decided in arrival order and answered with one write, and a
// ping behind them gets its pong after their decisions.
func TestSessionAnswersBurstInOneWrite(t *testing.T) {
	srv := NewServer(newTestRegistry(t, tenant.TenantConfig{Workers: 1}), Config{})
	hello, checks := scriptFrames(t, 1, 2, 3)
	for _, tc := range []struct {
		name   string
		burst  []byte
		writes int
		want   string
	}{
		{"checks", checks, 2, "welcome/0 decisions/1 decisions/2 decisions/3"},
		{"checks then ping", append(append([]byte{}, checks...), EncodePing(nil, 4)...), 3,
			"welcome/0 decisions/1 decisions/2 decisions/3 pong/4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := &scriptConn{chunks: [][]byte{hello, tc.burst}}
			srv.newSession(conn).serve()
			fs := decodeFrames(t, conn.out.Bytes())
			if got := frameSeq(fs); got != tc.want {
				t.Fatalf("session wrote %s, want %s", got, tc.want)
			}
			for _, f := range fs {
				if f.Type == FrameDecisions && (len(f.Decisions) != 1 || !f.Decisions[0].Allowed) {
					t.Errorf("corr %d answered %+v, want one allowed decision", f.Corr, f.Decisions)
				}
			}
			if conn.writes != tc.writes {
				t.Errorf("session made %d writes, want %d: the welcome, one for the three decisions, then any pong", conn.writes, tc.writes)
			}
		})
	}
}

// TestAnswerNotHeldWhileReading: a session writes the answers it holds
// before its reader waits for input. The read that brings the second
// check waits until the first check's answer has been written, so a
// session that held that answer until more input arrived would never
// finish.
func TestAnswerNotHeldWhileReading(t *testing.T) {
	srv := NewServer(newTestRegistry(t, tenant.TenantConfig{Workers: 1}), Config{})
	hello, first := scriptFrames(t, 1)
	_, second := scriptFrames(t, 2)
	conn := &scriptConn{chunks: [][]byte{hello, first, second}, holdLast: 2}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.newSession(conn).serve()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = conn.SetReadDeadline(time.Unix(1, 0)) // release the held read
		<-done
		t.Fatal("session held the first answer while its reader waited for input")
	}
	if got, want := frameSeq(decodeFrames(t, conn.out.Bytes())), "welcome/0 decisions/1 decisions/2"; got != want {
		t.Errorf("session wrote %s, want %s", got, want)
	}
}

// TestDrainAnswersBufferedFrames: a drain that begins right after one
// read landed three pipelined check frames and part of a fourth in the
// session's read buffer answers the three complete frames, then sends
// GoAway. The torn fourth frame is dropped without an error frame.
func TestDrainAnswersBufferedFrames(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	srv := NewServer(reg, Config{})
	hello, err := EncodeHello(nil, Hello{MinVersion: Version, MaxVersion: Version})
	if err != nil {
		t.Fatal(err)
	}
	var pipelined []byte
	for corr := uint64(1); corr <= 4; corr++ {
		b, err := EncodeCheck(nil, corr, []service.Query{{Op: service.OpAccess, Ring: 3, Segno: 0, Wordno: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if corr == 4 {
			b = b[:HeaderLen/2]
		}
		pipelined = append(pipelined, b...)
	}
	conn := &scriptConn{chunks: [][]byte{hello, pipelined}}
	sess := srv.newSession(conn)
	conn.onLast = sess.drain
	sess.serve()

	out := conn.out.Bytes()
	var types []FrameType
	answered := map[uint64]bool{}
	for len(out) > 0 {
		f, n, err := DecodeFrame(out)
		if err != nil {
			t.Fatalf("session wrote an undecodable frame after %v: %v", types, err)
		}
		out = out[n:]
		types = append(types, f.Type)
		if f.Type == FrameDecisions {
			if len(f.Decisions) != 1 || !f.Decisions[0].Allowed {
				t.Errorf("corr %d answered %+v, want one allowed decision", f.Corr, f.Decisions)
			}
			answered[f.Corr] = true
		}
	}
	want := []FrameType{FrameWelcome, FrameDecisions, FrameDecisions, FrameDecisions, FrameGoAway}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("session wrote %v, want %v", types, want)
	}
	if !answered[1] || !answered[2] || !answered[3] {
		t.Errorf("answered correlation IDs %v, want 1, 2 and 3", answered)
	}
}

// failRepliesListener accepts connections whose every write after the
// first (the Welcome) fails without sending anything.
type failRepliesListener struct{ net.Listener }

func (l failRepliesListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &failRepliesConn{Conn: c}, nil
}

type failRepliesConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *failRepliesConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestReplyWriteErrorEndsSession: when the server cannot write a reply
// it must hang up rather than read on, so the client waiting for that
// reply gets an error instead of blocking forever.
func TestReplyWriteErrorEndsSession(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	srv := NewServer(reg, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(failRepliesListener{ln})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	c, err := Dial(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := c.Check(goldenQueries()...)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("check succeeded although every reply write failed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("check still blocked 2s after the server's reply write failed")
	}
}

// nopConn is a write-discarding net.Conn for the white-box zero-alloc
// gate.
type nopConn struct{}

func (nopConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// zeroAllocQueries is a batch for the allocation gates, in segno form:
// the zero-alloc contract covers frames that carry no segment names
// (name decode allocates its string, by design — the //ring:allow
// lines in getPackedString).
func zeroAllocQueries() []service.Query {
	return []service.Query{
		{Op: service.OpAccess, Ring: 4, Segno: 0, Wordno: 3, Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 5, Segno: 0, Kind: core.AccessWrite},
		{Op: service.OpCall, Ring: 4, Segno: 1, Wordno: 1},
		{Op: service.OpReturn, Ring: 2, Segno: 1, EffRing: ringp(3)},
		{Op: service.OpEffRing, Ring: 2, Chain: []service.ChainStep{{PR: true, Ring: 3}, {Segno: 2, Ring: 1}}},
	}
}

// TestWireCheckZeroAlloc gates the steady-state session loop at zero
// heap allocations per burst: the read loop reads a burst of pipelined
// check frames, decodes and decides each, queues its decisions and
// writes them all with one write (the wire analogue of
// TestSubmitIntoZeroAlloc, backed statically by ringvet's hotpath
// analyzer).
func TestWireCheckZeroAlloc(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	tnt, _ := reg.Get(tenant.DefaultTenant)
	conn := &scriptConn{}
	s := NewServer(reg, Config{}).newSession(conn)
	s.t = tnt

	const frames = 8
	var burst []byte
	for corr := uint64(1); corr <= frames; corr++ {
		b, err := EncodeCheck(nil, corr, zeroAllocQueries())
		if err != nil {
			t.Fatal(err)
		}
		burst = append(burst, b...)
	}
	br := bufio.NewReaderSize(conn, readBufSize)
	script := make([][]byte, 1) // reads consume it, so each run refills it
	allocs := testing.AllocsPerRun(200, func() {
		script[0] = burst
		conn.chunks = script
		conn.out.Reset()
		conn.writes = 0
		br.Reset(conn)
		s.readLoop(br)
	})
	if allocs != 0 {
		t.Fatalf("steady-state wire check loop allocates %.1f times per burst, want 0", allocs)
	}
	if conn.writes != 1 {
		t.Fatalf("a burst of %d check frames was answered with %d writes, want 1", frames, conn.writes)
	}
	// Sanity: the loop produced real decisions, in arrival order, not
	// error frames.
	fs := decodeFrames(t, conn.out.Bytes())
	if len(fs) != frames {
		t.Fatalf("session answered %d frames, want %d: %s", len(fs), frames, frameSeq(fs))
	}
	for i, f := range fs {
		if f.Type != FrameDecisions || f.Corr != uint64(i+1) {
			t.Fatalf("answer %d is %v/%d, want decisions/%d", i, f.Type, f.Corr, i+1)
		}
		if !f.Decisions[0].Allowed || f.Decisions[2].Outcome != core.CallDownward.String() {
			t.Fatalf("zero-alloc loop produced wrong decisions: %+v", f.Decisions)
		}
	}
}

// TestClientCheckZeroAlloc gates a steady-state loopback round trip at
// zero heap allocations per batch. AllocsPerRun counts the whole
// process, so it gates both ends: the client's call record, encode,
// write and wake-up, and the session's read, decide, encode and write.
func TestClientCheckZeroAlloc(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	queries := zeroAllocQueries()
	dst := make([]service.Decision, len(queries))
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.CheckInto(queries, dst); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state client round trip allocates %.1f times per batch, want 0", allocs)
	}
	if !dst[0].Allowed || dst[2].Outcome != core.CallDownward.String() {
		t.Fatalf("zero-alloc round trip produced wrong decisions: %+v", dst)
	}
}

// TestClientMatchesReorderedReplies: the protocol lets a server answer
// pipelined calls in any order, and the client matches each reply to
// its call by correlation ID. A scripted peer reads two pipelined
// checks and answers the later one first; the two batches differ in
// length and in their decisions, so a mismatched reply fails its call.
func TestClientMatchesReorderedReplies(t *testing.T) {
	tnt, _ := newTestRegistry(t, tenant.TenantConfig{Workers: 1}).Get(tenant.DefaultTenant)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	peer := make(chan error, 1)
	go func() { peer <- reorderingPeer(ln, tnt) }()

	c, err := Dial(ln.Addr().String(), ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	batches := [][]service.Query{
		{{Op: service.OpAccess, Ring: 4, Segno: 0, Wordno: 3, Kind: core.AccessRead}},
		{{Op: service.OpAccess, Ring: 7, Segno: 2, Kind: core.AccessRead}, {Op: service.OpCall, Ring: 4, Segno: 1, Wordno: 1}},
	}
	var wg sync.WaitGroup
	for _, qs := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want, err := tnt.Submit(context.Background(), qs)
			if err != nil {
				t.Errorf("in-process submit: %v", err)
				return
			}
			got := make([]service.Decision, len(qs))
			if err := c.CheckInto(qs, got); err != nil {
				t.Errorf("check %+v: %v", qs, err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("check %+v got %+v, want %+v", qs, got, want)
			}
		}()
	}
	wg.Wait()
	if err := <-peer; err != nil {
		t.Fatal(err)
	}
}

// reorderingPeer accepts one wire session, reads two check frames,
// and answers them in reverse correlation order with tnt's decisions.
func reorderingPeer(ln net.Listener, tnt *tenant.Tenant) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	var rbuf []byte
	if h, _, err := readFrame(conn, &rbuf, DefaultMaxFrame); err != nil || h.Type != FrameHello {
		return fmt.Errorf("read hello: %v %v", h.Type, err)
	}
	welcome, err := EncodeWelcome(nil, Welcome{Version: Version})
	if err != nil {
		return err
	}
	if _, err := conn.Write(welcome); err != nil {
		return err
	}
	var answers [2][]byte
	var corrs [2]uint64
	for i := range answers {
		h, payload, err := readFrame(conn, &rbuf, DefaultMaxFrame)
		if err != nil || h.Type != FrameCheck {
			return fmt.Errorf("read check %d: %v %v", i, h.Type, err)
		}
		var b Batch
		if err := DecodeCheckInto(payload, &b); err != nil {
			return err
		}
		ds, err := tnt.Submit(context.Background(), b.Queries)
		if err != nil {
			return err
		}
		if answers[i], err = EncodeDecisions(nil, h.Corr, ds); err != nil {
			return err
		}
		corrs[i] = h.Corr
	}
	if corrs[0] < corrs[1] {
		answers[0], answers[1] = answers[1], answers[0]
	}
	for _, a := range answers {
		if _, err := conn.Write(a); err != nil {
			return err
		}
	}
	return nil
}

// settledGoroutines returns runtime.NumGoroutine once it has held
// still for 50 ms, so goroutines of earlier tests that are still
// exiting do not skew a baseline.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	n, since := runtime.NumGoroutine(), time.Now()
	for deadline := time.Now().Add(5 * time.Second); time.Since(since) < 50*time.Millisecond; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last %d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// waitGoroutines waits until runtime.NumGoroutine reads want.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n != want; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionGoroutines counts a session's goroutines through
// runtime.NumGoroutine deltas: one per plain session, one more (the
// pusher) once subscribed, and none left once the clients close and
// Shutdown returns.
func TestSessionGoroutines(t *testing.T) {
	base := settledGoroutines(t)
	srv := NewServer(newTestRegistry(t, tenant.TenantConfig{Workers: 1}), Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	const sessions = 3
	var clients []*Client
	for i := 0; i < sessions; i++ {
		c, err := Dial(ln.Addr().String(), ClientConfig{})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		clients = append(clients, c)
		if _, err := c.Ping(); err != nil { // the session is past its handshake
			t.Fatalf("ping: %v", err)
		}
	}
	// The accept loop, then per session its server goroutine and the
	// client's reader.
	waitGoroutines(t, base+1+2*sessions, fmt.Sprintf("%d plain sessions", sessions))
	if _, err := clients[0].Subscribe(); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	waitGoroutines(t, base+2+2*sessions, "one session subscribed")

	for _, c := range clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
	waitGoroutines(t, base, "after close and shutdown")
}
