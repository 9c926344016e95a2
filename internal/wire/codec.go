package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/seg"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/word"
)

// Payload field widths. Queries and decisions are packed into the
// simulator's 36-bit words with the same field discipline as the
// instruction and SDW formats in internal/isa and internal/seg:
// segment numbers are seg.SegnoBits wide, word numbers seg.WordnoBits,
// rings three bits. Values outside those widths are not expressible on
// the wire; encoders reject them with ErrNotEncodable rather than
// silently truncating.
const (
	// maxQueryName bounds a segment name in a query or mutation
	// (7-bit length field in the query control word).
	maxQueryName = 127
	// maxString bounds the free-form strings (error messages, tenant
	// names) carried behind an 18-bit length word.
	maxString = 4096
	// wordBytes is the wire size of one 36-bit word: 8 bytes, big
	// endian, top 28 bits zero.
	wordBytes = 8
)

// Query op codes on the wire.
const (
	opAccess  = 1
	opCall    = 2
	opReturn  = 3
	opEffRing = 4
)

// MutOp is a mutation's op code on the wire: the tenant's edit names.
type MutOp = tenant.MutOp

// Mutation op codes.
const (
	MutSetBrackets = tenant.MutSetBrackets
	MutRevoke      = tenant.MutRevoke
	MutRestore     = tenant.MutRestore
)

// outcomeName maps the 3-bit outcome code of a decision control word
// to the interned outcome strings of core.CallOutcome/ReturnOutcome.
// Code 0 is the empty outcome (access and effring decisions, and
// denials).
var outcomeName = [7]string{
	1: core.CallSameRing.String(),
	2: core.CallDownward.String(),
	3: core.CallUpwardTrap.String(),
	4: core.ReturnSameRing.String(),
	5: core.ReturnUpward.String(),
	6: core.ReturnDownwardTrap.String(),
}

// outcomeCode returns the wire code of outcome and whether outcomeName
// holds it. Most decisions carry no outcome; the rest carry the
// interned strings, so each comparison is a length or pointer match.
//
//ring:hotpath
func outcomeCode(outcome string) (uint64, bool) {
	if outcome == "" {
		return 0, true
	}
	for i := 1; i < len(outcomeName); i++ {
		if outcomeName[i] == outcome {
			return uint64(i), true
		}
	}
	return 0, false
}

// ensure returns a length-n buffer, reusing buf's storage when it is
// large enough. Steady-state sessions hit the reuse path; growth is
// the amortized-cold path.
//
//ring:hotpath
func ensure(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	//ring:allow buffer growth is amortized-cold; steady state reuses capacity
	return make([]byte, n)
}

// Every encoder makes one pass over its input. It starts the frame at
// the start of buf's storage with startFrame, appends each field right
// after checking it, and closes the frame with endFrame, which writes
// the payload length. A field the wire cannot carry rejects the frame
// with ErrNotEncodable and no frame, once a prefix may already be
// written. Nothing before buf's start is written, so a session that
// encodes into the spare capacity of its queued answers keeps them.

// startFrame begins a frame in buf's storage: the header, with a zero
// payload length.
//
//ring:hotpath
func startFrame(buf []byte, t FrameType, corr uint64) []byte {
	b := ensure(buf, HeaderLen)
	PutHeader(b, Header{Type: t, Corr: corr})
	return b
}

// endFrame writes the payload length into the header of the frame b
// holds and returns the frame.
//
//ring:hotpath
func endFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b, uint32(len(b)-HeaderLen))
	return b
}

// appendUint64 appends v, big endian. Payload fields narrower than
// eight bytes are appended in eight-byte groups, the first field in
// the high bytes. It appends the byte-reversed value little endian:
// the compiler fuses that into one swap and one store, where a
// big-endian append of a masked word compiles to four stores.
//
//ring:hotpath
func appendUint64(b []byte, v uint64) []byte {
	//ring:allow frame growth is amortized-cold; steady state reuses capacity
	return binary.LittleEndian.AppendUint64(b, bits.ReverseBytes64(v))
}

// appendWord appends one 36-bit word.
//
//ring:hotpath
func appendWord(b []byte, w word.Word) []byte { return appendUint64(b, w.Uint64()) }

// getWord reads one 36-bit word at off, rejecting values with nonzero
// high bits.
//
//ring:hotpath
func getWord(b []byte, off int) (word.Word, error) {
	v := binary.BigEndian.Uint64(b[off : off+wordBytes])
	if v > word.Mask {
		return 0, ErrBadFrame
	}
	return word.Word(v), nil
}

// stringWords returns the number of words PackChars' convention needs
// for n characters.
//
//ring:hotpath
func stringWords(n int) int { return (n + 3) / 4 }

// appendChars appends s as packed character words (four 9-bit
// characters per word, high first, NUL padded). It reports false for a
// NUL in s, which would read back as padding.
//
//ring:hotpath
func appendChars(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i += 4 {
		var w word.Word
		for j := 0; j < 4 && i+j < len(s); j++ {
			if s[i+j] == 0 {
				return nil, false
			}
			w = w.Deposit(uint(27-9*j), 9, uint64(s[i+j]))
		}
		b = appendWord(b, w)
	}
	return b, true
}

// appendString appends s as a length word (the byte count in the low
// 18 bits) and its packed characters. It reports false for a string
// longer than max or holding a NUL.
//
//ring:hotpath
func appendString(b []byte, s string, max int) ([]byte, bool) {
	if len(s) > max {
		return nil, false
	}
	return appendChars(appendWord(b, word.Word(len(s))), s)
}

// getPackedString reads an n-character packed string at off, enforcing
// canonical packing: every in-range character nonzero and at most one
// byte wide, every padding character zero. It returns the string and
// the next offset.
//
//ring:hotpath
func getPackedString(b []byte, off, n int) (string, int, error) {
	words := stringWords(n)
	if off+words*wordBytes > len(b) {
		return "", 0, ErrBadFrame
	}
	//ring:allow string decode allocates its result; segno-form frames carry no strings
	buf := make([]byte, n)
	for w := 0; w < words; w++ {
		wd, err := getWord(b, off)
		if err != nil {
			return "", 0, err
		}
		off += wordBytes
		for j := 0; j < 4; j++ {
			ch := wd.Field(uint(27-9*j), 9)
			idx := 4*w + j
			switch {
			case idx < n && (ch == 0 || ch > 0xFF):
				return "", 0, ErrBadFrame
			case idx < n:
				buf[idx] = byte(ch)
			case ch != 0:
				return "", 0, ErrBadFrame
			}
		}
	}
	//ring:allow string decode allocates its result; segno-form frames carry no strings
	return string(buf), off, nil
}

// getLenWord reads a string-length word, rejecting nonzero high bits
// and lengths beyond max.
//
//ring:hotpath
func getLenWord(b []byte, off, max int) (int, int, error) {
	w, err := getWord(b, off)
	if err != nil {
		return 0, 0, err
	}
	if w.Field(18, 18) != 0 {
		return 0, 0, ErrBadFrame
	}
	n := int(w.Field(0, 18))
	if n > max {
		return 0, 0, ErrBadFrame
	}
	return n, off + wordBytes, nil
}

// ---- Check frames ----

// opCode returns the wire op code for op, or 0 for an op the wire does
// not carry.
//
//ring:hotpath
func opCode(op service.Op) uint64 {
	switch op {
	case service.OpAccess:
		return opAccess
	case service.OpCall:
		return opCall
	case service.OpReturn:
		return opReturn
	case service.OpEffRing:
		return opEffRing
	}
	return 0
}

// appendQuery appends one query, checking each field against its wire
// width before it is packed. It reports false for a query the wire
// cannot carry: an unknown op, a ring, kind, segment or word number
// beyond its width, a name too long, holding a NUL or beside a segment
// number, or a chain too long or with a step beyond its widths.
//
//ring:hotpath
func appendQuery(b []byte, q *service.Query) ([]byte, bool) {
	op := opCode(q.Op)
	if op == 0 || q.Ring > 7 || q.Kind < 0 || q.Kind > 3 {
		return nil, false
	}
	if len(q.Segment) > maxQueryName || len(q.Chain) >= 1<<16 {
		return nil, false
	}
	cw := word.Word(0).
		Deposit(33, 3, op).
		Deposit(30, 3, uint64(q.Ring)).
		Deposit(28, 2, uint64(q.Kind)).
		WithBit(27, q.SameSegment).
		Deposit(16, 7, uint64(len(q.Segment))).
		Deposit(0, 16, uint64(len(q.Chain)))
	if q.EffRing != nil {
		if *q.EffRing > 7 {
			return nil, false
		}
		cw = cw.WithBit(26, true).Deposit(23, 3, uint64(*q.EffRing))
	}
	b = appendWord(b, cw)
	if q.Segno > seg.MaxSegno || q.Wordno >= 1<<seg.WordnoBits {
		return nil, false
	}
	if q.Segment != "" && q.Segno != 0 {
		return nil, false
	}
	b = appendWord(b, word.Word(0).
		Deposit(18, seg.SegnoBits, uint64(q.Segno)).
		Deposit(0, seg.WordnoBits, uint64(q.Wordno)))
	b, ok := appendChars(b, q.Segment)
	if !ok {
		return nil, false
	}
	for i := range q.Chain {
		st := &q.Chain[i]
		if st.Ring > 7 {
			return nil, false
		}
		if st.PR {
			if st.Segno != 0 {
				return nil, false
			}
		} else if st.Segno > seg.MaxSegno {
			return nil, false
		}
		b = appendWord(b, word.Word(0).
			WithBit(35, st.PR).
			Deposit(32, 3, uint64(st.Ring)).
			Deposit(18, seg.SegnoBits, uint64(st.Segno)))
	}
	return b, true
}

// EncodeCheck fills buf from its start (reusing its storage when
// large enough) with a complete Check frame for the batch and returns
// it. Encoding is rejected with ErrNotEncodable when a query's fields
// exceed the wire widths (invalid rings, out-of-range segment or word
// numbers, oversized names or chains).
//
//ring:hotpath
func EncodeCheck(buf []byte, corr uint64, queries []service.Query) ([]byte, error) {
	// The query count, then four reserved zero bytes.
	b := appendUint64(startFrame(buf, FrameCheck, corr), uint64(len(queries))<<32)
	for i := range queries {
		var ok bool
		if b, ok = appendQuery(b, &queries[i]); !ok {
			return nil, ErrNotEncodable
		}
	}
	return endFrame(b), nil
}

// Batch is a reusable decode target for Check frames: the queries plus
// the backing slabs their chain slices and effective-ring pointers
// alias, and a decision slice sized to match. Reusing one Batch per
// session keeps the steady-state decode path allocation-free.
type Batch struct {
	Queries []service.Query
	Dst     []service.Decision
	effs    []core.Ring
	chains  []service.ChainStep
}

// DecodeCheckInto decodes a Check payload into b, reusing its slabs.
// The query count is bounded against the payload length before any
// allocation.
//
//ring:hotpath
func DecodeCheckInto(payload []byte, b *Batch) error {
	if len(payload) < 8 {
		return ErrBadFrame
	}
	count := binary.BigEndian.Uint32(payload[0:4])
	if binary.BigEndian.Uint32(payload[4:8]) != 0 {
		return ErrBadFrame
	}
	// Every query occupies at least two words: the count cannot exceed
	// what the payload could possibly hold, so sizing the slabs from it
	// is safe even against a hostile frame.
	if uint64(count)*2*wordBytes > uint64(len(payload)-8) {
		return ErrBadFrame
	}
	n := int(count)
	if cap(b.Queries) < n {
		//ring:allow batch-slab growth is amortized-cold; steady state reuses capacity
		b.Queries = make([]service.Query, n)
		//ring:allow batch-slab growth is amortized-cold; steady state reuses capacity
		b.Dst = make([]service.Decision, n)
		//ring:allow batch-slab growth is amortized-cold; steady state reuses capacity
		b.effs = make([]core.Ring, n)
	}
	b.Queries = b.Queries[:n]
	b.Dst = b.Dst[:n]
	b.effs = b.effs[:n]
	b.chains = b.chains[:0]
	off := 8
	for i := 0; i < n; i++ {
		var err error
		off, err = b.decodeQuery(payload, off, i)
		if err != nil {
			return err
		}
	}
	if off != len(payload) {
		return ErrBadFrame
	}
	return nil
}

// decodeQuery decodes one query at off into b.Queries[i], enforcing
// canonical encoding (zero reserved bits, no effective ring without
// its flag, no name alongside a nonzero segno).
//
//ring:hotpath
func (b *Batch) decodeQuery(p []byte, off, i int) (int, error) {
	q := &b.Queries[i]
	*q = service.Query{}
	if off+2*wordBytes > len(p) {
		return 0, ErrBadFrame
	}
	cw, err := getWord(p, off)
	if err != nil {
		return 0, err
	}
	switch cw.Field(33, 3) {
	case opAccess:
		q.Op = service.OpAccess
	case opCall:
		q.Op = service.OpCall
	case opReturn:
		q.Op = service.OpReturn
	case opEffRing:
		q.Op = service.OpEffRing
	default:
		return 0, ErrBadFrame
	}
	q.Ring = core.Ring(cw.Field(30, 3))
	q.Kind = core.AccessKind(cw.Field(28, 2))
	q.SameSegment = cw.Bit(27)
	if cw.Bit(26) {
		b.effs[i] = core.Ring(cw.Field(23, 3))
		q.EffRing = &b.effs[i]
	} else if cw.Field(23, 3) != 0 {
		return 0, ErrBadFrame
	}
	nameLen := int(cw.Field(16, 7))
	chainLen := int(cw.Field(0, 16))
	aw, err := getWord(p, off+wordBytes)
	if err != nil {
		return 0, err
	}
	if aw.Field(32, 4) != 0 {
		return 0, ErrBadFrame
	}
	q.Segno = uint32(aw.Field(18, seg.SegnoBits))
	q.Wordno = uint32(aw.Field(0, seg.WordnoBits))
	off += 2 * wordBytes
	if nameLen > 0 {
		if q.Segno != 0 {
			return 0, ErrBadFrame
		}
		q.Segment, off, err = getPackedString(p, off, nameLen)
		if err != nil {
			return 0, err
		}
	}
	if chainLen > 0 {
		if off+chainLen*wordBytes > len(p) {
			return 0, ErrBadFrame
		}
		start := len(b.chains)
		if start+chainLen > cap(b.chains) {
			//ring:allow chain-slab growth is amortized-cold; steady state reuses capacity
			grown := make([]service.ChainStep, start+chainLen, 2*(start+chainLen))
			copy(grown, b.chains)
			b.chains = grown
		}
		b.chains = b.chains[:start+chainLen]
		for k := 0; k < chainLen; k++ {
			sw, err := getWord(p, off)
			if err != nil {
				return 0, err
			}
			if sw.Field(0, 18) != 0 {
				return 0, ErrBadFrame
			}
			st := &b.chains[start+k]
			st.PR = sw.Bit(35)
			st.Ring = core.Ring(sw.Field(32, 3))
			st.Segno = uint32(sw.Field(18, seg.SegnoBits))
			if st.PR && st.Segno != 0 {
				return 0, ErrBadFrame
			}
			off += wordBytes
		}
		q.Chain = b.chains[start : start+chainLen : start+chainLen]
	}
	return off, nil
}

// ---- Decisions frames ----

// appendDecision appends one decision, checking each field against
// its wire width before it is packed. The Violation string is not
// carried: it is derived from ViolationKind on decode (the two are
// interned pairs in internal/core).
//
//ring:hotpath
func appendDecision(b []byte, d *service.Decision) ([]byte, bool) {
	if d.NewRing > 7 || d.Worker < 0 || d.Worker >= 1<<15 {
		return nil, false
	}
	if d.Shard < -1 || d.Shard >= (1<<7)-1 {
		return nil, false
	}
	if d.ViolationKind < 0 || int(d.ViolationKind) >= core.ViolationKindCount {
		return nil, false
	}
	oc, ok := outcomeCode(d.Outcome)
	if !ok {
		return nil, false
	}
	b = appendWord(b, word.Word(0).
		WithBit(35, d.Allowed).
		WithBit(34, d.Trapped).
		WithBit(33, d.Err != "").
		Deposit(29, 3, oc).
		Deposit(25, 4, uint64(d.ViolationKind)).
		Deposit(22, 3, uint64(d.NewRing)).
		Deposit(15, 7, uint64(d.Shard+1)).
		Deposit(0, 15, uint64(d.Worker)))
	b = appendUint64(b, d.VersionLo)
	b = appendUint64(b, d.VersionHi)
	if d.Err == "" {
		return b, true
	}
	return appendString(b, d.Err, maxString)
}

// EncodeDecisions fills buf (reusing its storage when large enough)
// with a complete Decisions frame answering correlation ID corr.
//
//ring:hotpath
func EncodeDecisions(buf []byte, corr uint64, ds []service.Decision) ([]byte, error) {
	// The decision count, then four reserved zero bytes.
	b := appendUint64(startFrame(buf, FrameDecisions, corr), uint64(len(ds))<<32)
	for i := range ds {
		var ok bool
		if b, ok = appendDecision(b, &ds[i]); !ok {
			return nil, ErrNotEncodable
		}
	}
	return endFrame(b), nil
}

// DecodeDecisionsInto decodes a Decisions payload into dst and returns
// the decision count, which must fit dst.
//
//ring:hotpath
func DecodeDecisionsInto(payload []byte, dst []service.Decision) (int, error) {
	if len(payload) < 8 {
		return 0, ErrBadFrame
	}
	count := binary.BigEndian.Uint32(payload[0:4])
	if binary.BigEndian.Uint32(payload[4:8]) != 0 {
		return 0, ErrBadFrame
	}
	if uint64(count)*(wordBytes+16) > uint64(len(payload)-8) || int(count) > len(dst) {
		return 0, ErrBadFrame
	}
	off := 8
	for i := 0; i < int(count); i++ {
		var err error
		off, err = decodeDecision(payload, off, &dst[i])
		if err != nil {
			return 0, err
		}
	}
	if off != len(payload) {
		return 0, ErrBadFrame
	}
	return int(count), nil
}

// decodeDecision decodes one decision at off into d.
//
//ring:hotpath
func decodeDecision(p []byte, off int, d *service.Decision) (int, error) {
	*d = service.Decision{}
	if off+wordBytes+16 > len(p) {
		return 0, ErrBadFrame
	}
	cw, err := getWord(p, off)
	if err != nil {
		return 0, err
	}
	if cw.Bit(32) {
		return 0, ErrBadFrame
	}
	d.Allowed = cw.Bit(35)
	d.Trapped = cw.Bit(34)
	hasErr := cw.Bit(33)
	oc := cw.Field(29, 3)
	if oc >= uint64(len(outcomeName)) {
		return 0, ErrBadFrame
	}
	d.Outcome = outcomeName[oc]
	vk := cw.Field(25, 4)
	if int(vk) >= core.ViolationKindCount {
		return 0, ErrBadFrame
	}
	if vk != 0 {
		d.ViolationKind = core.ViolationKind(vk)
		d.Violation = d.ViolationKind.String()
	}
	d.NewRing = core.Ring(cw.Field(22, 3))
	d.Shard = int(cw.Field(15, 7)) - 1
	d.Worker = int(cw.Field(0, 15))
	off += wordBytes
	d.VersionLo = binary.BigEndian.Uint64(p[off:])
	d.VersionHi = binary.BigEndian.Uint64(p[off+8:])
	off += 16
	if hasErr {
		var n int
		if off+wordBytes > len(p) {
			return 0, ErrBadFrame
		}
		n, off, err = getLenWord(p, off, maxString)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, ErrBadFrame
		}
		d.Err, off, err = getPackedString(p, off, n)
		if err != nil {
			return 0, err
		}
	}
	return off, nil
}

// ---- Handshake frames ----

// Hello opens a session: the client's supported version range and the
// tenant the session binds to ("" means the daemon's default tenant).
type Hello struct {
	MinVersion uint16
	MaxVersion uint16
	Tenant     string
}

// EncodeHello fills buf with a complete Hello frame (correlation 0).
func EncodeHello(buf []byte, h Hello) ([]byte, error) {
	if h.MinVersion == 0 || h.MinVersion > h.MaxVersion {
		return nil, ErrNotEncodable
	}
	b := startFrame(buf, FrameHello, 0)
	b = appendUint64(b, uint64(Magic)<<32|uint64(h.MinVersion)<<16|uint64(h.MaxVersion))
	b, ok := appendString(b, h.Tenant, maxQueryName)
	if !ok {
		return nil, ErrNotEncodable
	}
	return endFrame(b), nil
}

// decodeHello decodes a Hello payload.
func decodeHello(p []byte) (Hello, error) {
	var h Hello
	if len(p) < 8+wordBytes {
		return h, ErrBadFrame
	}
	if binary.BigEndian.Uint32(p[0:4]) != Magic {
		return h, ErrBadMagic
	}
	h.MinVersion = binary.BigEndian.Uint16(p[4:6])
	h.MaxVersion = binary.BigEndian.Uint16(p[6:8])
	if h.MinVersion == 0 || h.MinVersion > h.MaxVersion {
		return h, ErrBadFrame
	}
	n, off, err := getLenWord(p, 8, maxQueryName)
	if err != nil {
		return h, err
	}
	h.Tenant, off, err = getPackedString(p, off, n)
	if err != nil {
		return h, err
	}
	if off != len(p) {
		return h, ErrBadFrame
	}
	return h, nil
}

// Health is the image shape a Welcome or Pong reports: the bound
// tenant's segment, shard and worker counts plus its descriptor-store
// version.
type Health struct {
	Segments     uint32
	Shards       uint32
	Workers      uint32
	StoreVersion uint64
}

// Welcome accepts a session: the negotiated protocol version and the
// tenant's image shape.
type Welcome struct {
	Version uint16
	Health
}

// EncodeWelcome fills buf with a complete Welcome frame.
func EncodeWelcome(buf []byte, w Welcome) ([]byte, error) {
	if w.Version == 0 {
		return nil, ErrNotEncodable
	}
	b := appendUint64(startFrame(buf, FrameWelcome, 0), uint64(Magic)<<32|uint64(w.Version)<<16)
	return endFrame(appendHealth(b, w.Health)), nil
}

// decodeWelcome decodes a Welcome payload.
func decodeWelcome(p []byte) (Welcome, error) {
	var w Welcome
	if len(p) != 32 {
		return w, ErrBadFrame
	}
	if binary.BigEndian.Uint32(p[0:4]) != Magic {
		return w, ErrBadMagic
	}
	w.Version = binary.BigEndian.Uint16(p[4:6])
	if w.Version == 0 || binary.BigEndian.Uint16(p[6:8]) != 0 {
		return w, ErrBadFrame
	}
	var err error
	w.Health, err = decodePong(p[8:])
	return w, err
}

// ---- Mutation frames ----

// Mutation is a supervisor mutation, the tenant's edit carried by a
// Mutate frame. The target segment is named either by Segment or by
// Segno (both set is not encodable); the setbrackets payload fields
// must be zero for the other ops.
type Mutation = tenant.Mutation

// EncodeMutate fills buf with a complete Mutate frame. The
// setbrackets payload travels as a genuine SDW even/odd word pair
// (seg.SDW.Encode), so the wire shares the descriptor format with the
// simulated memory; gate counts beyond the SDW gate field's 14 bits
// are not encodable.
func EncodeMutate(buf []byte, corr uint64, m Mutation) ([]byte, error) {
	switch m.Op {
	case MutSetBrackets, MutRevoke, MutRestore:
	default:
		return nil, ErrNotEncodable
	}
	if len(m.Segment) > maxQueryName || m.Segno > seg.MaxSegno {
		return nil, ErrNotEncodable
	}
	if m.Segment != "" && m.Segno != 0 {
		return nil, ErrNotEncodable
	}
	// The op, four reserved zero bytes, the name's length word, the
	// segment number word and the name's characters.
	b := appendUint64(startFrame(buf, FrameMutate, corr), uint64(m.Op)<<32)
	b = appendWord(b, word.Word(len(m.Segment)))
	b = appendWord(b, word.Word(0).Deposit(18, seg.SegnoBits, uint64(m.Segno)))
	b, ok := appendChars(b, m.Segment)
	if !ok {
		return nil, ErrNotEncodable
	}
	if m.Op != MutSetBrackets {
		if m.Read || m.Write || m.Execute || m.Brackets != (core.Brackets{}) || m.Gates != 0 {
			return nil, ErrNotEncodable
		}
		return endFrame(b), nil
	}
	if m.Brackets.R1 > 7 || m.Brackets.R2 > 7 || m.Brackets.R3 > 7 || m.Gates > seg.MaxGate {
		return nil, ErrNotEncodable
	}
	even, odd := seg.SDW{
		Present: true, Read: m.Read, Write: m.Write, Execute: m.Execute,
		Brackets: m.Brackets, Gate: m.Gates,
	}.Encode()
	return endFrame(appendWord(appendWord(b, even), odd)), nil
}

// decodeMutate decodes a Mutate payload, enforcing a canonical SDW
// pair (present, zero address and bound, fields that re-encode to the
// same words).
func decodeMutate(p []byte) (Mutation, error) {
	var m Mutation
	if len(p) < 8+2*wordBytes {
		return m, ErrBadFrame
	}
	op := binary.BigEndian.Uint32(p[0:4])
	if binary.BigEndian.Uint32(p[4:8]) != 0 {
		return m, ErrBadFrame
	}
	m.Op = MutOp(op)
	switch m.Op {
	case MutSetBrackets, MutRevoke, MutRestore:
	default:
		return m, ErrBadFrame
	}
	n, off, err := getLenWord(p, 8, maxQueryName)
	if err != nil {
		return m, err
	}
	aw, err := getWord(p, off)
	if err != nil {
		return m, err
	}
	if aw.Field(0, 18) != 0 || aw.Field(32, 4) != 0 {
		return m, ErrBadFrame
	}
	m.Segno = uint32(aw.Field(18, seg.SegnoBits))
	off += wordBytes
	m.Segment, off, err = getPackedString(p, off, n)
	if err != nil {
		return m, err
	}
	if m.Segment != "" && m.Segno != 0 {
		return m, ErrBadFrame
	}
	if m.Op == MutSetBrackets {
		if off+2*wordBytes > len(p) {
			return m, ErrBadFrame
		}
		even, err := getWord(p, off)
		if err != nil {
			return m, err
		}
		odd, err := getWord(p, off+wordBytes)
		if err != nil {
			return m, err
		}
		sdw := seg.Decode(even, odd)
		if !sdw.Present || sdw.Addr != 0 || sdw.Bound != 0 {
			return m, ErrBadFrame
		}
		if e2, o2 := sdw.Encode(); e2 != even || o2 != odd {
			return m, ErrBadFrame
		}
		m.Read, m.Write, m.Execute = sdw.Read, sdw.Write, sdw.Execute
		m.Brackets, m.Gates = sdw.Brackets, sdw.Gate
		off += 2 * wordBytes
	}
	if off != len(p) {
		return m, ErrBadFrame
	}
	return m, nil
}

// EncodeMutated fills buf with a Mutated frame reporting the store
// version after the mutation.
func EncodeMutated(buf []byte, corr, version uint64) []byte {
	return endFrame(appendUint64(startFrame(buf, FrameMutated, corr), version))
}

// ---- Ping / Pong ----

// EncodePing fills buf with a Ping frame.
func EncodePing(buf []byte, corr uint64) []byte {
	return startFrame(buf, FramePing, corr)
}

// EncodePong fills buf with a Pong frame carrying the image shape.
func EncodePong(buf []byte, corr uint64, h Health) []byte {
	return endFrame(appendHealth(startFrame(buf, FramePong, corr), h))
}

// appendHealth appends the image shape: the segment and shard counts,
// the worker count and four reserved zero bytes, and the store
// version. It is a Pong's payload and follows a Welcome's version.
func appendHealth(b []byte, h Health) []byte {
	b = appendUint64(b, uint64(h.Segments)<<32|uint64(h.Shards))
	b = appendUint64(b, uint64(h.Workers)<<32)
	return appendUint64(b, h.StoreVersion)
}

// decodePong decodes a Pong payload, which is also a Welcome's image
// shape.
func decodePong(p []byte) (Health, error) {
	var h Health
	if len(p) != 24 || binary.BigEndian.Uint32(p[12:16]) != 0 {
		return h, ErrBadFrame
	}
	h.Segments = binary.BigEndian.Uint32(p[0:4])
	h.Shards = binary.BigEndian.Uint32(p[4:8])
	h.Workers = binary.BigEndian.Uint32(p[8:12])
	h.StoreVersion = binary.BigEndian.Uint64(p[16:24])
	return h, nil
}

// ---- Error / GoAway ----

// ErrFrame is the payload of a FrameError: a code mirroring the HTTP
// status mapping plus a message.
type ErrFrame struct {
	Code uint16
	Msg  string
}

// Error implements error, so a client can surface a server rejection
// directly.
func (e *ErrFrame) Error() string {
	return fmt.Sprintf("wire: server error %d: %s", e.Code, e.Msg)
}

// EncodeError fills buf with an Error frame.
func EncodeError(buf []byte, corr uint64, code uint16, msg string) ([]byte, error) {
	if code == 0 {
		return nil, ErrNotEncodable
	}
	// The code, then six reserved zero bytes.
	b := appendUint64(startFrame(buf, FrameError, corr), uint64(code)<<48)
	b, ok := appendString(b, msg, maxString)
	if !ok {
		return nil, ErrNotEncodable
	}
	return endFrame(b), nil
}

// decodeError decodes an Error payload.
func decodeError(p []byte) (ErrFrame, error) {
	var e ErrFrame
	if len(p) < 8+wordBytes {
		return e, ErrBadFrame
	}
	e.Code = binary.BigEndian.Uint16(p[0:2])
	if e.Code == 0 || binary.BigEndian.Uint16(p[2:4]) != 0 || binary.BigEndian.Uint32(p[4:8]) != 0 {
		return e, ErrBadFrame
	}
	n, off, err := getLenWord(p, 8, maxString)
	if err != nil {
		return e, err
	}
	e.Msg, off, err = getPackedString(p, off, n)
	if err != nil {
		return e, err
	}
	if off != len(p) {
		return e, ErrBadFrame
	}
	return e, nil
}

// EncodeGoAway fills buf with a GoAway frame.
func EncodeGoAway(buf []byte) []byte {
	return startFrame(buf, FrameGoAway, 0)
}

// ---- Subscribe / Shootdown / LeaseExpire ----
//
// The invalidation stream: a client replicating descriptor tables
// subscribes once, after which every descriptor publication on its
// tenant fans out as a Shootdown push, and the subscription itself is
// revoked with a LeaseExpire push when the tenant drains. Pushes carry
// correlation ID 0 — they answer no request.

// Shootdown is the payload of a FrameShootdown push: shard Shard
// published epoch Epoch after a mutation of segment Segno. A replica's
// table of Shard older than Epoch is stale. Pushes coalesce: a
// shootdown names the shard's latest table when it is sent, and Segno
// is the segment whose edit published that table.
type Shootdown struct {
	Shard uint32
	Segno uint32
	Epoch uint64
}

// LeaseExpire is the payload of a FrameLeaseExpire push: the
// subscription is revoked and the client's replica must be dropped.
// Code mirrors the error-code vocabulary: the server sends
// CodeUnavailable when the tenant's eviction revokes the subscription.
type LeaseExpire struct {
	Code uint16
}

// EncodeSubscribe fills buf with a Subscribe frame (empty payload).
func EncodeSubscribe(buf []byte, corr uint64) []byte {
	return startFrame(buf, FrameSubscribe, corr)
}

// EncodeShootdown fills buf with a Shootdown push frame. The epoch
// must be even: shootdowns are serialized through the shard's epoch
// bump and always name a publication, never an in-flight edit.
//
//ring:hotpath
func EncodeShootdown(buf []byte, sd Shootdown) ([]byte, error) {
	if sd.Epoch&1 != 0 {
		return nil, ErrNotEncodable
	}
	b := appendUint64(startFrame(buf, FrameShootdown, 0), uint64(sd.Shard)<<32|uint64(sd.Segno))
	return endFrame(appendUint64(b, sd.Epoch)), nil
}

// decodeShootdown decodes a Shootdown payload.
func decodeShootdown(p []byte) (Shootdown, error) {
	var sd Shootdown
	if len(p) != 16 {
		return sd, ErrBadFrame
	}
	sd.Shard = binary.BigEndian.Uint32(p[0:4])
	sd.Segno = binary.BigEndian.Uint32(p[4:8])
	sd.Epoch = binary.BigEndian.Uint64(p[8:16])
	if sd.Epoch&1 != 0 {
		return sd, ErrBadFrame
	}
	return sd, nil
}

// EncodeLeaseExpire fills buf with a LeaseExpire push frame.
func EncodeLeaseExpire(buf []byte, le LeaseExpire) ([]byte, error) {
	if le.Code == 0 {
		return nil, ErrNotEncodable
	}
	// The code, then six reserved zero bytes.
	return endFrame(appendUint64(startFrame(buf, FrameLeaseExpire, 0), uint64(le.Code)<<48)), nil
}

// decodeLeaseExpire decodes a LeaseExpire payload.
func decodeLeaseExpire(p []byte) (LeaseExpire, error) {
	var le LeaseExpire
	if len(p) != 8 || binary.BigEndian.Uint16(p[2:4]) != 0 || binary.BigEndian.Uint32(p[4:8]) != 0 {
		return le, ErrBadFrame
	}
	le.Code = binary.BigEndian.Uint16(p[0:2])
	if le.Code == 0 {
		return le, ErrBadFrame
	}
	return le, nil
}

// ---- Fetch / Tables ----
//
// The replication pair: a client keeping a replica of its tenant's
// descriptor tables fetches the shards it needs, and the server answers
// with each named shard's current published table, stamped with the
// shard's even epoch, every descriptor view written back as its
// Figure 3 even/odd word pair at core address 0 (seg.FromView,
// seg.SDW.Encode). The first fetch of a session also asks for the
// image's segment names, so named queries decide locally too.

// Fetch is the payload of a FrameFetch request: the shards whose
// tables the client wants (bit i names shard i) and whether the
// image's segment names should come along.
type Fetch struct {
	Shards uint64
	Names  bool
}

// Tables is the payload of a FrameTables response. Tables[i] is shard
// i's table, nil for a shard the fetch did not name. Names are the
// image's segment names in segment-number order, nil unless the fetch
// asked for them.
type Tables struct {
	Tables [service.MaxShards]*service.Table
	Names  []string
}

// EncodeFetch fills buf with a Fetch frame.
func EncodeFetch(buf []byte, corr uint64, f Fetch) []byte {
	// The shard mask, then the flags and four reserved zero bytes.
	var flags uint64
	if f.Names {
		flags = 1
	}
	b := appendUint64(startFrame(buf, FrameFetch, corr), f.Shards)
	return endFrame(appendUint64(b, flags<<32))
}

// decodeFetch decodes a Fetch payload.
func decodeFetch(p []byte) (Fetch, error) {
	var f Fetch
	if len(p) != 16 {
		return f, ErrBadFrame
	}
	flags := binary.BigEndian.Uint32(p[8:12])
	if flags > 1 || binary.BigEndian.Uint32(p[12:16]) != 0 {
		return f, ErrBadFrame
	}
	f.Shards = binary.BigEndian.Uint64(p[0:8])
	f.Names = flags == 1
	return f, nil
}

// EncodeTables fills buf with a Tables frame. Every table's epoch must
// be even and every view canonical as an SDW at core address 0; names
// follow the query-name rules.
//
//	0   8  mask of the shards carried (bit i: Tables[i] follows)
//	8   4  name count
//	12  4  reserved (zero)
//	then, per carried shard in ascending order: epoch (8), SDW count
//	(4), reserved (4), and the SDWs as even/odd word pairs; then each
//	name as a length word and packed characters.
func EncodeTables(buf []byte, corr uint64, t *Tables) ([]byte, error) {
	b := startFrame(buf, FrameTables, corr)
	b = appendUint64(b, 0) // the mask, written once the shards are
	b = appendUint64(b, uint64(len(t.Names))<<32)
	var mask uint64
	for i, tab := range t.Tables {
		if tab == nil {
			continue
		}
		if tab.Epoch()&1 != 0 {
			return nil, ErrNotEncodable
		}
		mask |= 1 << i
		b = appendUint64(b, tab.Epoch())
		b = appendUint64(b, uint64(len(tab.Views()))<<32)
		for _, v := range tab.Views() {
			// The view must survive its Figure 3 word pair unchanged and
			// hold the store's invariants (seg.SDW.Validate).
			sdw := seg.FromView(v)
			even, odd := sdw.Encode()
			if seg.Decode(even, odd) != sdw || sdw.Validate() != nil {
				return nil, ErrNotEncodable
			}
			b = appendWord(appendWord(b, even), odd)
		}
	}
	binary.BigEndian.PutUint64(b[HeaderLen:], mask)
	for _, name := range t.Names {
		var ok bool
		if b, ok = appendString(b, name, maxQueryName); !ok {
			return nil, ErrNotEncodable
		}
	}
	return endFrame(b), nil
}

// decodeTables decodes a Tables payload, enforcing even epochs and
// canonical SDWs at core address 0 — a descriptor view holds no
// address — and converts each SDW to its view. Every count is bounded
// by the payload length before anything is allocated for it.
func decodeTables(p []byte) (Tables, error) {
	var t Tables
	if len(p) < 16 || binary.BigEndian.Uint32(p[12:16]) != 0 {
		return t, ErrBadFrame
	}
	mask := binary.BigEndian.Uint64(p[0:8])
	names := binary.BigEndian.Uint32(p[8:12])
	off := 16
	for m := mask; m != 0; m &= m - 1 {
		if off+16 > len(p) {
			return t, ErrBadFrame
		}
		epoch := binary.BigEndian.Uint64(p[off:])
		count := binary.BigEndian.Uint32(p[off+8:])
		if epoch&1 != 0 || binary.BigEndian.Uint32(p[off+12:]) != 0 ||
			uint64(count)*2*wordBytes > uint64(len(p)-off-16) {
			return t, ErrBadFrame
		}
		off += 16
		var views []core.SDWView
		if count > 0 {
			views = make([]core.SDWView, count)
		}
		for k := range views {
			even, err := getWord(p, off)
			if err != nil {
				return t, err
			}
			odd, err := getWord(p, off+wordBytes)
			if err != nil {
				return t, err
			}
			off += 2 * wordBytes
			sdw := seg.Decode(even, odd)
			if e2, o2 := sdw.Encode(); e2 != even || o2 != odd || sdw.Validate() != nil || sdw.Addr != 0 {
				return t, ErrBadFrame
			}
			views[k] = sdw.View()
		}
		t.Tables[bits.TrailingZeros64(m)] = service.NewTable(epoch, views)
	}
	if uint64(names)*wordBytes > uint64(len(p)-off) {
		return t, ErrBadFrame
	}
	if names > 0 {
		t.Names = make([]string, names)
	}
	for k := range t.Names {
		if off+wordBytes > len(p) {
			return t, ErrBadFrame
		}
		n, next, err := getLenWord(p, off, maxQueryName)
		if err != nil {
			return t, err
		}
		if t.Names[k], off, err = getPackedString(p, next, n); err != nil {
			return t, err
		}
	}
	if off != len(p) {
		return t, ErrBadFrame
	}
	return t, nil
}
