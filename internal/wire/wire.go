// Package wire is the binary face of the protection-decision daemon:
// a length-prefixed framing for decision batches over a persistent TCP
// connection, replacing the per-request parse-and-allocate cost of the
// HTTP/JSON surface with fixed-width fields packed into the simulator's
// own 36-bit words.
//
// The paper's argument is that the common-case protection check must
// not trap to the supervisor; this package applies the same argument to
// the network edge. A client opens one session, binds it to a tenant,
// and pipelines check frames continuously, without per-request
// connections, headers or JSON; responses carry the client's
// correlation IDs. The protocol lets responses arrive in any order. The
// server decides each check frame on the session's own goroutine, with
// no hand-off to another, and answers in arrival order, writing every
// answer to a burst of pipelined frames at once.
//
// # Frame layout
//
// Every frame is a 16-byte header followed by a payload:
//
//	offset  size  field
//	0       4     payload length (uint32, big endian; bounded by the
//	              server's Config.MaxFrame, a client's DefaultMaxFrame,
//	              BEFORE any allocation)
//	4       1     frame type
//	5       1     flags (must be 0 in version 1)
//	6       2     reserved (must be 0)
//	8       8     correlation ID (uint64, big endian; client-assigned,
//	              echoed on the response; 0 on Hello/Welcome/GoAway)
//
// Payload integers wider than a byte are big endian. 36-bit machine
// words travel as 8-byte big-endian integers whose top 28 bits must be
// zero; strings travel as a length word (byte count in the low 18 bits)
// followed by words packed four 9-bit characters each (word.PackChars'
// convention: high character first, NUL padded). Every reserved bit
// must be zero and every packed field canonical, so decoding a frame
// and re-encoding it reproduces the input byte for byte (fuzzed by
// FuzzDecodeFrame).
//
// # Version negotiation
//
// The first frame on a session must be Hello: magic "RING", the
// client's [min,max] supported protocol versions, and the tenant name
// the session binds to (empty means the daemon's default tenant). The
// server answers Welcome with the highest version both sides support —
// or an Error frame and a close when the ranges are disjoint — plus the
// bound tenant's image shape. All subsequent frames use the negotiated
// version. Version 1 is the only version; the header leaves flags and
// reserved fields for later versions to claim.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic opens every Hello/Welcome payload: "RING" in ASCII.
const Magic uint32 = 0x52494E47

// Version is the protocol version this package speaks.
const Version uint16 = 1

// HeaderLen is the fixed frame-header size in bytes.
const HeaderLen = 16

// DefaultMaxFrame bounds a frame payload (1 MiB): large enough for a
// BatchLimit-sized batch of worst-case queries, small enough that a
// hostile length prefix cannot balloon the session's buffers. The
// bound is enforced before any payload allocation.
const DefaultMaxFrame = 1 << 20

// FrameType names a frame.
type FrameType uint8

// Frame types. Requests carry client-assigned correlation IDs;
// responses echo them.
const (
	// FrameHello opens a session: magic, version range, tenant name.
	FrameHello FrameType = 1 + iota
	// FrameWelcome accepts a session: negotiated version, image shape.
	FrameWelcome
	// FrameCheck is a decision batch request.
	FrameCheck
	// FrameDecisions answers a Check with the batch's decisions.
	FrameDecisions
	// FrameMutate is a supervisor mutation (setbrackets/revoke/restore).
	FrameMutate
	// FrameMutated answers a Mutate with the store version.
	FrameMutated
	// FramePing is a liveness probe.
	FramePing
	// FramePong answers a Ping with the image shape.
	FramePong
	// FrameError answers any request that failed: a numeric code
	// mirroring the HTTP status mapping, plus a message.
	FrameError
	// FrameGoAway announces a graceful close: every accepted frame has
	// been answered and the server is about to close the connection.
	FrameGoAway
	// FrameSubscribe asks the server to push descriptor-invalidation
	// events for the session's tenant: the network analogue of joining
	// the shootdown Group. Answered with a Pong carrying the image
	// shape (StoreVersion is the subscription's starting epoch sum).
	FrameSubscribe
	// FrameShootdown is a server push (correlation 0) on a subscribed
	// session: a descriptor of the named shard changed, and the frame
	// names the shard's new (even) publication epoch. A replica's table
	// of that shard at an older epoch is stale.
	FrameShootdown
	// FrameLeaseExpire is a server push (correlation 0) revoking the
	// subscription itself: the tenant is draining or evicted, so no
	// further shootdowns will arrive and the client's replica must be
	// dropped.
	FrameLeaseExpire
	// FrameFetch asks for the current published descriptor tables of
	// the named shards (and, optionally, the image's segment names): a
	// client replicating the tenant's SDWs fills and refreshes its
	// replica with it.
	FrameFetch
	// FrameTables answers a Fetch: each named shard's table stamped
	// with its even publication epoch, SDWs in Figure 3 format.
	FrameTables
)

// String returns the frame type's wire name.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameCheck:
		return "check"
	case FrameDecisions:
		return "decisions"
	case FrameMutate:
		return "mutate"
	case FrameMutated:
		return "mutated"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameError:
		return "error"
	case FrameGoAway:
		return "goaway"
	case FrameSubscribe:
		return "subscribe"
	case FrameShootdown:
		return "shootdown"
	case FrameLeaseExpire:
		return "lease_expire"
	case FrameFetch:
		return "fetch"
	case FrameTables:
		return "tables"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// valid reports whether t names a version-1 frame type.
//
//ring:hotpath
func (t FrameType) valid() bool { return t >= FrameHello && t <= FrameTables }

// Error codes carried by FrameError: the HTTP status the JSON surface
// answers for the same condition, tenant.Status's for a rejected check
// or edit.
const (
	// CodeBadRequest: malformed frame or query (HTTP 400).
	CodeBadRequest uint16 = 400
	// CodeNotFound: unknown tenant or segment (HTTP 404).
	CodeNotFound uint16 = 404
	// CodeConflict: mutation against a sealed or draining tenant
	// (HTTP 409) — the seal/drain race answered as an error frame.
	CodeConflict uint16 = 409
	// CodeShed: every processor of the tenant was busy and its bound of
	// waiting callers reached; the batch was shed, not queued (HTTP
	// 429). Retry after backing off.
	CodeShed uint16 = 429
	// CodeUnavailable: the tenant is draining or closed (HTTP 503).
	CodeUnavailable uint16 = 503
)

// Header is a parsed frame header.
type Header struct {
	// Len is the payload length in bytes (the header excluded).
	Len uint32
	// Type is the frame type.
	Type FrameType
	// Corr is the correlation ID echoed between request and response.
	Corr uint64
}

// Framing errors.
var (
	// ErrFrameTooLarge reports a length prefix beyond the session's
	// frame bound; detected before any allocation.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size bound")
	// ErrBadFrame reports a malformed frame: unknown type, nonzero
	// reserved bits, or a payload that does not decode canonically.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrBadMagic reports a Hello/Welcome without the RING magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion reports disjoint version ranges at the handshake.
	ErrVersion = errors.New("wire: no common protocol version")
	// ErrNotEncodable reports a query, decision or mutation whose
	// fields exceed the wire format's fixed widths.
	ErrNotEncodable = errors.New("wire: value exceeds wire field width")
)

// PutHeader writes h into b, which must hold HeaderLen bytes. The
// flags and reserved fields are written as zero.
//
//ring:hotpath
func PutHeader(b []byte, h Header) {
	binary.BigEndian.PutUint32(b[0:4], h.Len)
	b[4] = byte(h.Type)
	b[5] = 0
	binary.BigEndian.PutUint16(b[6:8], 0)
	binary.BigEndian.PutUint64(b[8:16], h.Corr)
}

// ParseHeader decodes and validates a frame header from b, which must
// hold at least HeaderLen bytes. The payload-length bound is the
// caller's to enforce (it depends on the session's configured maximum);
// everything else — known type, zero flags, zero reserved — is checked
// here.
//
//ring:hotpath
func ParseHeader(b []byte) (Header, error) {
	h := Header{
		Len:  binary.BigEndian.Uint32(b[0:4]),
		Type: FrameType(b[4]),
		Corr: binary.BigEndian.Uint64(b[8:16]),
	}
	if !h.Type.valid() || b[5] != 0 || b[6] != 0 || b[7] != 0 {
		return h, ErrBadFrame
	}
	return h, nil
}
