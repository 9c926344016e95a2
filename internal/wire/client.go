package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// ClientConfig configures Dial. A client offers exactly Version in its
// Hello, accepts only a Welcome at Version, and bounds every incoming
// frame at DefaultMaxFrame.
type ClientConfig struct {
	// Tenant is the tenant name the session binds to; "" means the
	// daemon's default tenant.
	Tenant string
	// Timeout bounds connection establishment and the handshake, and
	// then every call: while calls are pending and no frame arrives
	// within Timeout, the session fails and every pending call returns
	// an error wrapping os.ErrDeadlineExceeded. Default 10s.
	Timeout time.Duration

	// OnShootdown, when set, receives every Shootdown push the server
	// sends after a Subscribe: the shard index, the segno whose edit
	// published the shard's table, and that table's (even) epoch.
	// Called on the session's reader goroutine — it must not block and
	// must not call back into the client.
	OnShootdown func(sd Shootdown)
	// OnLeaseExpire receives the subscription-revoked push (same
	// constraints). After it fires no further shootdowns arrive on this
	// session.
	OnLeaseExpire func(le LeaseExpire)
	// OnClose, when set, is called exactly once when the session dies —
	// GoAway, connection failure, or Close — with the fatal error.
	// Everything a replica holds from this session is unverifiable from
	// that instant, so this is where it lapses.
	OnClose func(err error)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// Client is one streaming wire session. It is safe for concurrent
// use: calls from multiple goroutines pipeline on the single
// connection, correlated by ID. The protocol lets responses arrive in
// any order; each is matched to its call by its ID.
type Client struct {
	conn    net.Conn
	cfg     ClientConfig
	welcome Welcome

	wmu  sync.Mutex
	wbuf []byte //ring:guarded wmu (request encode scratch)

	mu       sync.Mutex
	nextCorr uint64           //ring:guarded mu
	pending  map[uint64]*call //ring:guarded mu
	fatal    error            //ring:guarded mu
	watch    *time.Timer      //ring:guarded mu (runs watchdog; nil until the first call)

	// progress is when the session last showed life to pending calls,
	// as a monotonic() instant: the last frame read, or the first call
	// of a busy spell. The watchdog fails the session Timeout after it.
	progress atomic.Int64

	readerDone chan struct{}
}

// clockBase anchors the client's monotonic clock.
var clockBase = time.Now()

// monotonic returns the time since clockBase on the monotonic clock, so
// a step of the wall clock moves no watchdog deadline.
func monotonic() time.Duration { return time.Since(clockBase) }

// call is one request in flight. Records are reused together with
// their wake-up channel: one send on done wakes the waiting caller,
// which releases the record once it has read the result.
type call struct {
	typ     FrameType // expected response type
	dst     []service.Decision
	version uint64
	health  Health
	tables  *Tables // Fetch's result
	err     error
	done    chan struct{}
}

// callPool recycles call records, each with its wake-up channel.
var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// newCall takes a call record expecting a typ response.
func newCall(typ FrameType) *call {
	cl := callPool.Get().(*call)
	cl.typ = typ
	return cl
}

// release returns a call record for reuse. The caller must know that
// nothing will wake it any more, as it does once roundTrip returns.
func (cl *call) release() {
	*cl = call{done: cl.done}
	callPool.Put(cl)
}

// Dial opens a wire session to addr: TCP connect, Hello/Welcome
// handshake, response-reader start. A server rejection surfaces as
// *ErrFrame.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		cfg:        cfg,
		pending:    make(map[uint64]*call),
		readerDone: make(chan struct{}),
	}
	if err := c.handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) handshake() error {
	deadline := time.Now().Add(c.cfg.Timeout)
	_ = c.conn.SetDeadline(deadline)
	defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	b, err := EncodeHello(nil, Hello{
		MinVersion: Version,
		MaxVersion: Version,
		Tenant:     c.cfg.Tenant,
	})
	if err != nil {
		return err
	}
	if _, err := c.conn.Write(b); err != nil {
		return err
	}
	var rbuf []byte
	h, payload, err := readFrame(c.conn, &rbuf, DefaultMaxFrame)
	if err != nil {
		return err
	}
	switch h.Type {
	case FrameWelcome:
		w, err := decodeWelcome(payload)
		if err != nil {
			return err
		}
		if w.Version != Version {
			return ErrVersion
		}
		c.welcome = w
		return nil
	case FrameError:
		e, err := decodeError(payload)
		if err != nil {
			return err
		}
		return &e
	default:
		return ErrBadFrame
	}
}

// Welcome returns the handshake result: the negotiated version and
// the bound tenant's image shape.
func (c *Client) Welcome() Welcome { return c.welcome }

// Close tears the session down. In-flight calls fail with the
// connection error.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// readLoop dispatches response frames to their pending calls until
// the connection dies. It reads through a buffer, like the session's
// read loop; the handshake read the connection directly, so the buffer
// starts at the first frame after Welcome.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.conn, readBufSize)
	var rbuf []byte
	for {
		h, payload, err := readFrame(br, &rbuf, DefaultMaxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		c.progress.Store(int64(monotonic()))
		switch {
		case h.Type == FrameGoAway:
			c.fail(ErrGoAway)
			return
		case h.Corr == 0:
			switch h.Type {
			case FrameShootdown:
				// Server push on a subscribed session: dispatch and keep
				// reading.
				sd, derr := decodeShootdown(payload)
				if derr != nil {
					c.fail(derr)
					return
				}
				if f := c.cfg.OnShootdown; f != nil {
					f(sd)
				}
				continue
			case FrameLeaseExpire:
				le, derr := decodeLeaseExpire(payload)
				if derr != nil {
					c.fail(derr)
					return
				}
				if f := c.cfg.OnLeaseExpire; f != nil {
					f(le)
				}
				continue
			case FrameError:
				// Session-level error: the server is about to close.
				if e, derr := decodeError(payload); derr == nil {
					ef := e
					c.fail(&ef)
					return
				}
			}
			c.fail(ErrBadFrame)
			return
		default:
			c.mu.Lock()
			cl := c.pending[h.Corr]
			delete(c.pending, h.Corr)
			c.mu.Unlock()
			if cl == nil {
				c.fail(ErrBadFrame)
				return
			}
			cl.complete(h.Type, payload)
			cl.done <- struct{}{}
		}
	}
}

// complete decodes one response into its call.
func (cl *call) complete(t FrameType, payload []byte) {
	if t == FrameError {
		e, err := decodeError(payload)
		if err != nil {
			cl.err = err
			return
		}
		cl.err = &e
		return
	}
	if t != cl.typ {
		cl.err = ErrBadFrame
		return
	}
	switch t {
	case FrameDecisions:
		n, err := DecodeDecisionsInto(payload, cl.dst)
		if err != nil {
			cl.err = err
		} else if n != len(cl.dst) {
			cl.err = ErrBadFrame
		}
	case FrameMutated:
		if len(payload) != 8 {
			cl.err = ErrBadFrame
			return
		}
		cl.version = binary.BigEndian.Uint64(payload)
	case FramePong:
		cl.health, cl.err = decodePong(payload)
	case FrameTables:
		*cl.tables, cl.err = decodeTables(payload)
	default:
		cl.err = ErrBadFrame
	}
}

// watchdog bounds every call: it fails the session when calls are
// pending and no frame has arrived for Timeout, and otherwise sleeps
// until that could first be true. roundTrip starts it when a call
// finds nothing else pending; it goes dormant when nothing is.
func (c *Client) watchdog() {
	c.mu.Lock()
	if len(c.pending) == 0 || c.fatal != nil {
		c.mu.Unlock()
		return
	}
	if wait := time.Duration(c.progress.Load()) + c.cfg.Timeout - monotonic(); wait > 0 {
		c.watch.Reset(wait)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.fail(fmt.Errorf("wire: no frame for %v with calls pending: %w", c.cfg.Timeout, os.ErrDeadlineExceeded))
}

// fail terminates every pending call with err (first failure wins)
// and closes the connection.
func (c *Client) fail(err error) {
	c.mu.Lock()
	first := c.fatal == nil
	if first {
		c.fatal = err
	}
	err = c.fatal
	pending := c.pending
	c.pending = make(map[uint64]*call)
	if c.watch != nil {
		c.watch.Stop()
	}
	c.mu.Unlock()
	if first && c.cfg.OnClose != nil {
		c.cfg.OnClose(err)
	}
	for _, cl := range pending {
		cl.err = err
		cl.done <- struct{}{}
	}
	c.conn.Close()
}

// roundTrip registers a call, writes its request frame (encoded by
// enc into the shared scratch buffer under the write lock) and waits
// for the response. Once it returns nothing will wake cl again, so the
// caller may release it.
func (c *Client) roundTrip(cl *call, enc func(buf []byte, corr uint64) ([]byte, error)) error {
	c.mu.Lock()
	if c.fatal != nil {
		err := c.fatal
		c.mu.Unlock()
		return err
	}
	c.nextCorr++
	id := c.nextCorr
	c.pending[id] = cl
	if len(c.pending) == 1 { // the first pending call starts the clock
		c.progress.Store(int64(monotonic()))
		if c.watch == nil {
			c.watch = time.AfterFunc(c.cfg.Timeout, c.watchdog)
		} else {
			c.watch.Reset(c.cfg.Timeout)
		}
	}
	c.mu.Unlock()

	c.wmu.Lock()
	b, err := enc(c.wbuf, id)
	var werr error
	if err == nil {
		c.wbuf = b
		_, werr = c.conn.Write(b)
	}
	c.wmu.Unlock()
	switch {
	case werr != nil:
		c.fail(werr) // wakes every pending call, this one included
	case err != nil:
		c.mu.Lock()
		_, waiting := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !waiting {
			<-cl.done // a failure took the call first and wakes it
		}
		return err
	}
	<-cl.done
	return cl.err
}

// CheckInto answers a batch of queries in place: dst[i] answers
// queries[i], and dst must hold at least len(queries) elements.
// Concurrent CheckInto calls pipeline on the session.
func (c *Client) CheckInto(queries []service.Query, dst []service.Decision) error {
	if len(dst) < len(queries) {
		return errors.New("wire: dst shorter than queries")
	}
	cl := newCall(FrameDecisions)
	defer cl.release()
	cl.dst = dst[:len(queries)]
	return c.roundTrip(cl, func(buf []byte, corr uint64) ([]byte, error) {
		return EncodeCheck(buf, corr, queries)
	})
}

// Check answers a batch of queries, allocating the decision slice.
func (c *Client) Check(queries ...service.Query) ([]service.Decision, error) {
	dst := make([]service.Decision, len(queries))
	if err := c.CheckInto(queries, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// Mutate applies one supervisor mutation and returns the store
// version after it.
func (c *Client) Mutate(m Mutation) (uint64, error) {
	cl := newCall(FrameMutated)
	defer cl.release()
	err := c.roundTrip(cl, func(buf []byte, corr uint64) ([]byte, error) {
		return EncodeMutate(buf, corr, m)
	})
	return cl.version, err
}

// Subscribe asks the server to push descriptor-invalidation events
// for the session's tenant to the config's OnShootdown/OnLeaseExpire
// handlers. The returned Health is the ack: its StoreVersion is the
// subscription's starting epoch sum — every mutation published after
// it will be announced. Idempotent.
func (c *Client) Subscribe() (Health, error) {
	cl := newCall(FramePong)
	defer cl.release()
	err := c.roundTrip(cl, func(buf []byte, corr uint64) ([]byte, error) {
		return EncodeSubscribe(buf, corr), nil
	})
	return cl.health, err
}

// Fetch returns the current published table of every shard in
// f.Shards, each stamped with its even epoch, plus the image's segment
// names when f.Names is set.
func (c *Client) Fetch(f Fetch) (*Tables, error) {
	ts := new(Tables)
	cl := newCall(FrameTables)
	defer cl.release()
	cl.tables = ts
	err := c.roundTrip(cl, func(buf []byte, corr uint64) ([]byte, error) {
		return EncodeFetch(buf, corr, f), nil
	})
	if err != nil {
		return nil, err
	}
	for i, tab := range ts.Tables {
		if (tab != nil) != (f.Shards&(1<<i) != 0) {
			return nil, ErrBadFrame // not the shards asked for
		}
	}
	return ts, nil
}

// Ping probes liveness and returns the tenant's current image shape.
func (c *Client) Ping() (Health, error) {
	cl := newCall(FramePong)
	defer cl.release()
	err := c.roundTrip(cl, func(buf []byte, corr uint64) ([]byte, error) {
		return EncodePing(buf, corr), nil
	})
	return cl.health, err
}
