package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tenant"
)

// readBufSize sizes the buffered reader of every session and client
// read loop, so a frame's header, its payload and the frames pipelined
// behind it arrive in one read. It also bounds the answers a session
// holds before writing them.
const readBufSize = 16 << 10

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("wire: server closed")

// ErrGoAway reports a request the server announced it will never
// answer: the session drained before the frame was accepted.
var ErrGoAway = errors.New("wire: server going away")

// Config sizes a wire Server.
type Config struct {
	// MaxFrame bounds a frame payload in bytes; default DefaultMaxFrame.
	// Enforced against the length prefix before any allocation.
	MaxFrame uint32
	// HandshakeTimeout bounds the wait for the Hello frame; default 10s.
	HandshakeTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	return c
}

// Server accepts streaming wire sessions against a tenant registry:
// the binary face of ringd, sharing the registry (and therefore the
// /v1/t/{name} semantics) with the HTTP handler.
type Server struct {
	reg *tenant.Registry
	cfg Config

	mu        sync.Mutex
	listeners map[net.Listener]struct{} //ring:guarded mu
	sessions  map[*session]struct{}     //ring:guarded mu
	closed    bool                      //ring:guarded mu
	wg        sync.WaitGroup
}

// NewServer builds a wire server over reg.
func NewServer(reg *tenant.Registry, cfg Config) *Server {
	return &Server{
		reg:       reg,
		cfg:       cfg.withDefaults(),
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
	}
}

// Serve accepts sessions on ln until the listener fails or the server
// shuts down. It always returns a non-nil error; after Shutdown the
// error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		sess := s.newSession(conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			sess.serve()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Shutdown stops accepting sessions and drains the live ones: each
// session stops reading from its connection, answers every frame it had
// accepted (every complete frame already in its read buffer included),
// sends GoAway and closes. Accepted batches are never dropped. When ctx
// expires first the remaining connections are force-closed and the
// context error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	live := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, sess := range live {
		sess.drain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// session is one accepted wire connection, served by one goroutine
// (plus the pusher once subscribed): it reads each frame, decides it
// and queues or writes its answer.
type session struct {
	srv  *Server
	conn net.Conn
	cfg  Config

	t *tenant.Tenant

	// Reader state, touched only by the serve goroutine: the frame
	// scratch, the check decode target, and the answers not yet written.
	rbuf  []byte
	batch Batch
	out   []byte

	wmu  sync.Mutex
	wbuf []byte //ring:guarded wmu (inline-response scratch)

	// wake is the channel the session watches the tenant's store with
	// (nil until the client sends Subscribe), and announced[i] the last
	// epoch of shard i it announced: the epochs themselves live in the
	// store's published tables. pusherStop/pusherWG bound the pusher
	// goroutine that turns wakes into Shootdown frames. The serve
	// goroutine (readLoop runs on it) sets wake and pusherStop before
	// the pusher starts, and neither changes after.
	wake       chan struct{}
	announced  []uint64 //ring:guarded wmu
	pusherStop chan struct{}
	pusherWG   sync.WaitGroup

	draining atomic.Bool
}

func (s *Server) newSession(conn net.Conn) *session {
	return &session{srv: s, conn: conn, cfg: s.cfg}
}

// serve runs the session to completion: handshake, read loop, drain.
// It owns the connection's lifetime.
func (s *session) serve() {
	defer s.conn.Close()
	if !s.handshake() {
		return
	}
	s.readLoop(bufio.NewReaderSize(s.conn, readBufSize))
	// Stop the shootdown pusher before any GoAway: GoAway must be the
	// last frame on the wire, and a push racing it would break that.
	if s.wake != nil {
		close(s.pusherStop)
		s.pusherWG.Wait()
		s.t.Store().Unwatch(s.wake)
	}
	if s.draining.Load() {
		s.wmu.Lock()
		s.wbuf = EncodeGoAway(s.wbuf)
		s.writeLocked(s.wbuf)
		s.wmu.Unlock()
		// Closing with unread input would reset the connection, which
		// can destroy the GoAway before the peer reads it: half-close,
		// then discard what the drain left unread until the peer closes.
		if tc, ok := s.conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		_ = s.conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		_, _ = io.Copy(io.Discard, s.conn)
	}
}

// drain begins a graceful close: stop reading (a past read deadline
// wakes the blocked reader), answer everything accepted, GoAway. The
// read loop still answers the complete frames its buffer holds; the
// deadline stops only reads from the connection.
func (s *session) drain() {
	s.draining.Store(true)
	_ = s.conn.SetReadDeadline(time.Unix(1, 0))
}

// handshake reads the Hello frame, negotiates a version, binds the
// tenant and answers Welcome. It reports whether the session may
// proceed; on failure an Error frame has been written (best effort).
func (s *session) handshake() bool {
	_ = s.conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	h, payload, err := readFrame(s.conn, &s.rbuf, s.cfg.MaxFrame)
	if err != nil {
		s.frameError(err)
		return false
	}
	if h.Type != FrameHello || h.Corr != 0 {
		s.writeError(0, CodeBadRequest, "expected hello")
		return false
	}
	hello, err := decodeHello(payload)
	if err != nil {
		s.writeError(0, CodeBadRequest, err.Error())
		return false
	}
	v := Version
	if hello.MaxVersion < v {
		v = hello.MaxVersion
	}
	if v < hello.MinVersion {
		s.writeError(0, CodeBadRequest, ErrVersion.Error())
		return false
	}
	name := hello.Tenant
	if name == "" {
		name = tenant.DefaultTenant
	}
	t, ok := s.srv.reg.Get(name)
	if !ok {
		s.writeError(0, CodeNotFound, fmt.Sprintf("unknown tenant %q", name))
		return false
	}
	switch t.State() {
	case tenant.StateActive, tenant.StateSealed:
	case tenant.StateDraining:
		s.writeError(0, CodeUnavailable, t.State().String())
		return false
	default:
		s.writeError(0, CodeNotFound, fmt.Sprintf("unknown tenant %q", name))
		return false
	}
	s.t = t
	s.wmu.Lock()
	b, werr := EncodeWelcome(s.wbuf, Welcome{Version: v, Health: s.health()})
	if werr == nil {
		s.wbuf = b
		_, werr = s.conn.Write(b)
	}
	s.wmu.Unlock()
	if werr != nil {
		return false
	}
	_ = s.conn.SetReadDeadline(time.Time{})
	if s.draining.Load() {
		s.drain() // a drain that began mid-handshake: restore its deadline
	}
	return true
}

// health reports the bound tenant's image shape.
func (s *session) health() Health {
	st := s.t.Store()
	return Health{
		Segments:     uint32(len(st.Segments())),
		Shards:       uint32(st.Shards()),
		Workers:      uint32(s.t.Service().Workers()),
		StoreVersion: st.Version(),
	}
}

// readLoop answers frames until the connection fails, the session
// drains, or the client commits a protocol error. Frames are read
// through br, so pipelined frames cost one read between them; the
// handshake read the connection directly, so the buffer starts at the
// first frame after Hello.
//
// A check frame is decided here, on the session's own goroutine, and
// its answer queued in s.out. The queue is written with one write when
// br holds no further complete frame (so no answer waits while the
// reader blocks), before any other frame is answered (so answers leave
// in arrival order, and a ping's shootdowns still precede its pong),
// once it reaches readBufSize, and when the loop ends (so GoAway stays
// the last frame). A client that pipelines faster than the session
// answers is held back by TCP flow control.
func (s *session) readLoop(br *bufio.Reader) {
	defer s.flush()
	for {
		if len(s.out) >= readBufSize || !frameBuffered(br) {
			s.flush()
		}
		h, payload, err := readFrame(br, &s.rbuf, s.cfg.MaxFrame)
		if err != nil {
			if !s.draining.Load() {
				s.frameError(err)
			}
			return
		}
		if h.Type != FrameCheck {
			s.flush()
		}
		switch h.Type {
		case FrameCheck:
			if !s.answer(h.Corr, payload) {
				return
			}
		case FrameMutate:
			if !s.handleMutate(h.Corr, payload) {
				return
			}
		case FramePing:
			if !s.handlePing(h.Corr, payload) {
				return
			}
		case FrameSubscribe:
			if !s.handleSubscribe(h.Corr, payload) {
				return
			}
		case FrameFetch:
			if !s.handleFetch(h.Corr, payload) {
				return
			}
		default:
			s.writeError(h.Corr, CodeBadRequest, "unexpected frame type")
			return
		}
	}
}

// frameError answers a framing failure (torn or malformed frame,
// oversize length prefix) with a best-effort session-level Error
// frame. Plain connection errors (EOF, reset) get nothing.
func (s *session) frameError(err error) {
	if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrBadFrame) {
		s.writeError(0, CodeBadRequest, err.Error())
	}
}

// frameBuffered reports whether br holds a whole frame, so reading it
// cannot block.
//
//ring:hotpath
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < HeaderLen {
		return false
	}
	hdr, _ := br.Peek(HeaderLen)
	return uint64(n-HeaderLen) >= uint64(binary.BigEndian.Uint32(hdr))
}

// answer decides one check frame through the tenant's zero-alloc
// decision path and queues its Decisions frame; a rejected batch
// queues an Error frame whose code is tenant.Status instead. It
// reports false on a malformed frame, which ends the session.
//
//ring:hotpath
func (s *session) answer(corr uint64, payload []byte) bool {
	if err := DecodeCheckInto(payload, &s.batch); err != nil {
		s.writeError(corr, CodeBadRequest, err.Error())
		return false
	}
	if len(s.batch.Queries) == 0 {
		s.queueError(corr, CodeBadRequest, "empty batch")
	} else if err := s.t.SubmitInto(context.Background(), s.batch.Queries, s.batch.Dst); err != nil {
		s.queueError(corr, uint16(tenant.Status(err, false)), err.Error())
	} else if b, err := EncodeDecisions(s.out[len(s.out):], corr, s.batch.Dst); err != nil {
		// Service decisions always fit the wire widths; defensive only.
		s.queueError(corr, CodeBadRequest, err.Error())
	} else {
		s.queue(b)
	}
	return true
}

// queue appends one encoded answer to s.out. The encoders write into
// the spare capacity of s.out, so b normally sits in place already; a
// frame that did not fit was encoded into a fresh buffer.
//
//ring:hotpath
func (s *session) queue(b []byte) {
	//ring:allow amortized growth of the queued answers; steady state reuses capacity
	s.out = append(s.out, b...)
}

// queueError queues an Error frame behind the answers already queued.
//
//ring:hotpath
func (s *session) queueError(corr uint64, code uint16, msg string) {
	if b, err := EncodeError(s.out[len(s.out):], corr, code, msg); err == nil {
		s.queue(b)
	}
}

// flush writes the queued answers with one write, under the write lock
// the pusher shares.
//
//ring:hotpath
func (s *session) flush() {
	if len(s.out) == 0 {
		return
	}
	s.wmu.Lock()
	s.writeLocked(s.out)
	s.wmu.Unlock()
	s.out = s.out[:0]
}

// handleMutate answers one Mutate frame inline on the reader. It
// reports false on a protocol error (malformed frame), which closes
// the session; semantic rejections answer an Error frame and keep the
// session open.
func (s *session) handleMutate(corr uint64, payload []byte) bool {
	m, err := decodeMutate(payload)
	if err != nil {
		s.writeError(corr, CodeBadRequest, err.Error())
		return false
	}
	version, err := s.t.Mutate(m)
	if err != nil {
		s.writeError(corr, uint16(tenant.Status(err, true)), err.Error())
		return true
	}
	s.wmu.Lock()
	s.wbuf = EncodeMutated(s.wbuf, corr, version)
	s.writeLocked(s.wbuf)
	s.wmu.Unlock()
	return true
}

// handleFetch answers one Fetch frame inline on the reader, as Ping
// is: the current published table of every named shard, each a clean
// snapshot of its shard at its even epoch, plus the image's segment
// names when asked. A shard at or beyond the tenant's shard count, or
// a tenant no longer serving, answers an Error frame and keeps the
// session open; a malformed frame reports false, which closes it.
func (s *session) handleFetch(corr uint64, payload []byte) bool {
	f, err := decodeFetch(payload)
	if err != nil {
		s.writeError(corr, CodeBadRequest, err.Error())
		return false
	}
	st := s.t.Store()
	if f.Shards>>st.Shards() != 0 {
		s.writeError(corr, CodeBadRequest, fmt.Sprintf("fetch names shard %d of a %d-shard store", bits.Len64(f.Shards)-1, st.Shards()))
		return true
	}
	if state := s.t.State(); state != tenant.StateActive && state != tenant.StateSealed {
		s.writeError(corr, CodeUnavailable, state.String())
		return true
	}
	var ts Tables
	for m := f.Shards; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		ts.Tables[i] = st.Table(i)
	}
	if f.Names {
		ts.Names = st.Segments()
	}
	s.wmu.Lock()
	b, err := EncodeTables(s.wbuf, corr, &ts)
	if err == nil {
		s.wbuf = b
		s.writeLocked(b)
	}
	s.wmu.Unlock()
	if err != nil {
		s.writeError(corr, CodeBadRequest, err.Error())
	}
	return true
}

// handleSubscribe registers the session for descriptor-invalidation
// pushes and acks with a Pong (its StoreVersion is the subscription's
// starting epoch sum). The session watches the store and records every
// shard's published epoch BEFORE the ack is written, so no publication
// can fall between the ack and the first shootdown the client could
// hear about; the pusher starts after the ack, so pushes never precede
// it on the wire. A repeated Subscribe just re-acks.
func (s *session) handleSubscribe(corr uint64, payload []byte) bool {
	if len(payload) != 0 {
		s.writeError(corr, CodeBadRequest, "subscribe carries no payload")
		return false
	}
	first := s.wake == nil
	s.wmu.Lock()
	if first {
		st := s.t.Store()
		s.wake = make(chan struct{}, 1)
		st.Watch(s.wake)
		s.announced = make([]uint64, st.Shards())
		for i := range s.announced {
			s.announced[i] = st.Table(i).Epoch()
		}
	}
	s.pongLocked(corr) // no announcement: no push precedes the ack
	s.wmu.Unlock()
	if first {
		s.pusherStop = make(chan struct{})
		s.pusherWG.Add(1)
		go s.pusher()
	}
	return true
}

// pusher announces the shards each store wake published, and sends a
// final LeaseExpire when the tenant's eviction revokes the
// subscription. It runs until then or until the session closes;
// serve() joins it before writing GoAway.
func (s *session) pusher() {
	defer s.pusherWG.Done()
	for {
		select {
		case <-s.pusherStop:
			return
		case <-s.t.Revoked():
			s.wmu.Lock()
			s.announced = nil // nothing is announced after the expiry
			if b, err := EncodeLeaseExpire(s.wbuf, LeaseExpire{Code: CodeUnavailable}); err == nil {
				s.wbuf = b
				s.writeLocked(b)
			}
			s.wmu.Unlock()
			return
		case <-s.wake:
			s.wmu.Lock()
			s.announceLocked()
			s.wmu.Unlock()
		}
	}
}

// announceLocked writes a Shootdown frame for every shard whose
// published table has passed the last epoch the session announced for
// it, naming that table's epoch and the segment whose edit published
// it. Announcements run under the write lock, so a frame written after
// one follows every publication it read; publications between two
// announcements coalesce into the later one.
//
//ring:locked wmu
func (s *session) announceLocked() {
	st := s.t.Store()
	for i, last := range s.announced {
		tab := st.Table(i)
		if tab.Epoch() <= last {
			continue
		}
		s.announced[i] = tab.Epoch()
		b, err := EncodeShootdown(s.wbuf, Shootdown{Shard: uint32(i), Segno: tab.Edited(), Epoch: tab.Epoch()})
		if err == nil {
			s.wbuf = b
			s.writeLocked(b)
			s.t.CountShootdown()
		}
	}
}

// handlePing answers one Ping frame inline on the reader. On a
// subscribed session it first announces every shard published since
// its last announcement, under the same write lock: a ping is then a
// barrier after which the client has been told of every edit published
// before the server answered. A Ping with a payload is a protocol error, as
// DecodeFrame rules, and ends the session.
func (s *session) handlePing(corr uint64, payload []byte) bool {
	if len(payload) != 0 {
		s.writeError(corr, CodeBadRequest, "ping carries no payload")
		return false
	}
	s.wmu.Lock()
	s.announceLocked()
	s.pongLocked(corr)
	s.wmu.Unlock()
	return true
}

// pongLocked writes a Pong carrying the image shape.
//
//ring:locked wmu
func (s *session) pongLocked(corr uint64) {
	s.wbuf = EncodePong(s.wbuf, corr, s.health())
	s.writeLocked(s.wbuf)
}

// writeError writes an Error frame behind every queued answer. Only
// the serve goroutine calls it.
//
//ring:hotpath
func (s *session) writeError(corr uint64, code uint16, msg string) {
	s.queueError(corr, code, msg)
	s.flush()
}

// writeLocked writes one frame; the caller holds wmu. A failed write
// closes the connection: readLoop's next read fails and serve tears
// the session down, instead of reading on for a peer that waits
// forever on an answer that never went out.
//
//ring:hotpath
//ring:locked wmu
func (s *session) writeLocked(b []byte) {
	if _, err := s.conn.Write(b); err != nil {
		_ = s.conn.Close()
	}
}

// readFrame reads one frame from r into *buf, which is grown as
// needed and reused across calls. The length prefix is bounded by max
// BEFORE the payload buffer grows, so a hostile prefix cannot force an
// allocation. A frame torn mid-payload surfaces io.ErrUnexpectedEOF.
//
//ring:hotpath
func readFrame(r io.Reader, buf *[]byte, max uint32) (Header, []byte, error) {
	b := *buf
	if cap(b) < HeaderLen {
		//ring:allow first-frame buffer allocation; steady state reuses capacity
		b = make([]byte, HeaderLen)
		*buf = b
	}
	if _, err := io.ReadFull(r, b[:HeaderLen]); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(b[:HeaderLen])
	if err != nil {
		return h, nil, err
	}
	if h.Len > max {
		return h, nil, ErrFrameTooLarge
	}
	n := int(h.Len)
	b = ensure(b, n)
	*buf = b
	if _, err := io.ReadFull(r, b[:n]); err != nil {
		return h, nil, err
	}
	return h, b[:n], nil
}
