package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/seg"
	"repro/internal/service"
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

// Mutation op codes.
type MutOp uint32

const (
	// MutSetBrackets replaces a segment's flags, brackets and gates.
	MutSetBrackets MutOp = 1 + iota
	// MutRevoke clears a segment's present flag.
	MutRevoke
	// MutRestore re-sets a revoked segment's present flag.
	MutRestore
)

// outcomeName maps the 3-bit outcome code of a decision control word
// to the interned outcome strings of core.CallOutcome/ReturnOutcome;
// outcomeCode is the reverse map. Code 0 is the empty outcome (access
// and effring decisions, and denials).
var (
	outcomeName [7]string
	outcomeCode map[string]uint64
)

func init() {
	outcomeName[1] = core.CallSameRing.String()
	outcomeName[2] = core.CallDownward.String()
	outcomeName[3] = core.CallUpwardTrap.String()
	outcomeName[4] = core.ReturnSameRing.String()
	outcomeName[5] = core.ReturnUpward.String()
	outcomeName[6] = core.ReturnDownwardTrap.String()
	outcomeCode = make(map[string]uint64, 6)
	for i := 1; i < len(outcomeName); i++ {
		outcomeCode[outcomeName[i]] = uint64(i)
	}
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

// putWord writes one 36-bit word at off and returns the next offset.
//
//ring:hotpath
func putWord(b []byte, off int, w word.Word) int {
	binary.BigEndian.PutUint64(b[off:off+wordBytes], w.Uint64())
	return off + wordBytes
}

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

// validString rejects strings the packed-character format cannot carry
// canonically: longer than max, or containing NUL (the padding
// character).
func validString(s string, max int) error {
	if len(s) > max {
		return ErrNotEncodable
	}
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			return ErrNotEncodable
		}
	}
	return nil
}

// stringWords returns the number of words PackChars' convention needs
// for n characters.
//
//ring:hotpath
func stringWords(n int) int { return (n + 3) / 4 }

// putPackedString writes s as packed character words (four 9-bit
// characters per word, high first, NUL padded) and returns the next
// offset. The caller has validated s with validString.
//
//ring:hotpath
func putPackedString(b []byte, off int, s string) int {
	for i := 0; i < len(s); i += 4 {
		var w word.Word
		for j := 0; j < 4 && i+j < len(s); j++ {
			w = w.Deposit(uint(27-9*j), 9, uint64(s[i+j]))
		}
		off = putWord(b, off, w)
	}
	return off
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

// putLenWord writes a string-length word (byte count in the low 18
// bits, high bits zero).
//
//ring:hotpath
func putLenWord(b []byte, off, n int) int {
	return putWord(b, off, word.Word(0).Deposit(0, 18, uint64(n)))
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

// querySize validates one query's encodability and returns its wire
// size in bytes.
func querySize(q *service.Query) (int, error) {
	switch q.Op {
	case service.OpAccess, service.OpCall, service.OpReturn, service.OpEffRing:
	default:
		return 0, ErrNotEncodable
	}
	if q.Ring > 7 || q.Kind < 0 || q.Kind > 3 {
		return 0, ErrNotEncodable
	}
	if q.EffRing != nil && *q.EffRing > 7 {
		return 0, ErrNotEncodable
	}
	if q.Segno > seg.MaxSegno || q.Wordno >= 1<<seg.WordnoBits {
		return 0, ErrNotEncodable
	}
	if q.Segment != "" {
		if q.Segno != 0 {
			return 0, ErrNotEncodable
		}
		if err := validString(q.Segment, maxQueryName); err != nil {
			return 0, err
		}
	}
	if len(q.Chain) >= 1<<16 {
		return 0, ErrNotEncodable
	}
	for i := range q.Chain {
		st := &q.Chain[i]
		if st.Ring > 7 {
			return 0, ErrNotEncodable
		}
		if st.PR {
			if st.Segno != 0 {
				return 0, ErrNotEncodable
			}
		} else if st.Segno > seg.MaxSegno {
			return 0, ErrNotEncodable
		}
	}
	return 2*wordBytes + stringWords(len(q.Segment))*wordBytes + len(q.Chain)*wordBytes, nil
}

// opCode returns the wire op code for q.Op (validated by querySize).
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
	default:
		return opEffRing
	}
}

// putQuery writes one validated query at off and returns the next
// offset.
//
//ring:hotpath
func putQuery(b []byte, off int, q *service.Query) int {
	cw := word.Word(0).
		Deposit(33, 3, opCode(q.Op)).
		Deposit(30, 3, uint64(q.Ring)).
		Deposit(28, 2, uint64(q.Kind)).
		WithBit(27, q.SameSegment).
		Deposit(16, 7, uint64(len(q.Segment))).
		Deposit(0, 16, uint64(len(q.Chain)))
	if q.EffRing != nil {
		cw = cw.WithBit(26, true).Deposit(23, 3, uint64(*q.EffRing))
	}
	off = putWord(b, off, cw)
	aw := word.Word(0).
		Deposit(18, seg.SegnoBits, uint64(q.Segno)).
		Deposit(0, seg.WordnoBits, uint64(q.Wordno))
	off = putWord(b, off, aw)
	off = putPackedString(b, off, q.Segment)
	for i := range q.Chain {
		st := &q.Chain[i]
		sw := word.Word(0).
			WithBit(35, st.PR).
			Deposit(32, 3, uint64(st.Ring)).
			Deposit(18, seg.SegnoBits, uint64(st.Segno))
		off = putWord(b, off, sw)
	}
	return off
}

// EncodeCheck appends nothing: it fills buf (reusing its storage when
// large enough) with a complete Check frame for the batch and returns
// it. Encoding is rejected with ErrNotEncodable when a query's fields
// exceed the wire widths (invalid rings, out-of-range segment or word
// numbers, oversized names or chains).
//
//ring:hotpath
func EncodeCheck(buf []byte, corr uint64, queries []service.Query) ([]byte, error) {
	size := 8
	for i := range queries {
		n, err := querySize(&queries[i])
		if err != nil {
			return nil, err
		}
		size += n
	}
	b := ensure(buf, HeaderLen+size)
	PutHeader(b, Header{Len: uint32(size), Type: FrameCheck, Corr: corr})
	binary.BigEndian.PutUint32(b[HeaderLen:], uint32(len(queries)))
	binary.BigEndian.PutUint32(b[HeaderLen+4:], 0)
	off := HeaderLen + 8
	for i := range queries {
		off = putQuery(b, off, &queries[i])
	}
	return b, nil
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

// decisionSize validates one decision's encodability and returns its
// wire size.
func decisionSize(d *service.Decision) (int, error) {
	if d.NewRing > 7 || d.Worker < 0 || d.Worker >= 1<<15 {
		return 0, ErrNotEncodable
	}
	if d.Shard < -1 || d.Shard >= (1<<7)-1 {
		return 0, ErrNotEncodable
	}
	if d.ViolationKind < 0 || int(d.ViolationKind) >= core.ViolationKindCount {
		return 0, ErrNotEncodable
	}
	if d.Outcome != "" {
		if _, ok := outcomeCode[d.Outcome]; !ok {
			return 0, ErrNotEncodable
		}
	}
	size := wordBytes + 16
	if d.Err != "" {
		if err := validString(d.Err, maxString); err != nil {
			return 0, err
		}
		size += wordBytes + stringWords(len(d.Err))*wordBytes
	}
	return size, nil
}

// putDecision writes one validated decision at off. The Violation
// string is not carried: it is derived from ViolationKind on decode
// (the two are interned pairs in internal/core).
//
//ring:hotpath
func putDecision(b []byte, off int, d *service.Decision) int {
	cw := word.Word(0).
		WithBit(35, d.Allowed).
		WithBit(34, d.Trapped).
		WithBit(33, d.Err != "").
		Deposit(29, 3, outcomeCode[d.Outcome]).
		Deposit(25, 4, uint64(d.ViolationKind)).
		Deposit(22, 3, uint64(d.NewRing)).
		Deposit(15, 7, uint64(d.Shard+1)).
		Deposit(0, 15, uint64(d.Worker))
	off = putWord(b, off, cw)
	binary.BigEndian.PutUint64(b[off:], d.VersionLo)
	binary.BigEndian.PutUint64(b[off+8:], d.VersionHi)
	off += 16
	if d.Err != "" {
		off = putLenWord(b, off, len(d.Err))
		off = putPackedString(b, off, d.Err)
	}
	return off
}

// EncodeDecisions fills buf (reusing its storage when large enough)
// with a complete Decisions frame answering correlation ID corr.
//
//ring:hotpath
func EncodeDecisions(buf []byte, corr uint64, ds []service.Decision) ([]byte, error) {
	size := 8
	for i := range ds {
		n, err := decisionSize(&ds[i])
		if err != nil {
			return nil, err
		}
		size += n
	}
	b := ensure(buf, HeaderLen+size)
	PutHeader(b, Header{Len: uint32(size), Type: FrameDecisions, Corr: corr})
	binary.BigEndian.PutUint32(b[HeaderLen:], uint32(len(ds)))
	binary.BigEndian.PutUint32(b[HeaderLen+4:], 0)
	off := HeaderLen + 8
	for i := range ds {
		off = putDecision(b, off, &ds[i])
	}
	return b, nil
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
	if err := validString(h.Tenant, maxQueryName); err != nil {
		return nil, err
	}
	size := 8 + wordBytes + stringWords(len(h.Tenant))*wordBytes
	b := ensure(buf, HeaderLen+size)
	PutHeader(b, Header{Len: uint32(size), Type: FrameHello})
	binary.BigEndian.PutUint32(b[HeaderLen:], Magic)
	binary.BigEndian.PutUint16(b[HeaderLen+4:], h.MinVersion)
	binary.BigEndian.PutUint16(b[HeaderLen+6:], h.MaxVersion)
	off := putLenWord(b, HeaderLen+8, len(h.Tenant))
	putPackedString(b, off, h.Tenant)
	return b, nil
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
	const size = 32
	b := ensure(buf, HeaderLen+size)
	PutHeader(b, Header{Len: size, Type: FrameWelcome})
	binary.BigEndian.PutUint32(b[HeaderLen:], Magic)
	binary.BigEndian.PutUint16(b[HeaderLen+4:], w.Version)
	binary.BigEndian.PutUint16(b[HeaderLen+6:], 0)
	binary.BigEndian.PutUint32(b[HeaderLen+8:], w.Segments)
	binary.BigEndian.PutUint32(b[HeaderLen+12:], w.Shards)
	binary.BigEndian.PutUint32(b[HeaderLen+16:], w.Workers)
	binary.BigEndian.PutUint32(b[HeaderLen+20:], 0)
	binary.BigEndian.PutUint64(b[HeaderLen+24:], w.StoreVersion)
	return b, nil
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
	if w.Version == 0 || binary.BigEndian.Uint16(p[6:8]) != 0 || binary.BigEndian.Uint32(p[20:24]) != 0 {
		return w, ErrBadFrame
	}
	w.Segments = binary.BigEndian.Uint32(p[8:12])
	w.Shards = binary.BigEndian.Uint32(p[12:16])
	w.Workers = binary.BigEndian.Uint32(p[16:20])
	w.StoreVersion = binary.BigEndian.Uint64(p[24:32])
	return w, nil
}

// ---- Mutation frames ----

// Mutation is a supervisor mutation: the binary form of the JSON
// mutate request. The target segment is named either by Segment or by
// Segno (Segment takes precedence; both set is not encodable).
type Mutation struct {
	Op      MutOp
	Segment string
	Segno   uint32

	// MutSetBrackets payload; must be zero for the other ops.
	Read     bool
	Write    bool
	Execute  bool
	Brackets core.Brackets
	Gates    uint32
}

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
	if m.Segment != "" {
		if m.Segno != 0 {
			return nil, ErrNotEncodable
		}
		if err := validString(m.Segment, maxQueryName); err != nil {
			return nil, err
		}
	}
	if m.Segno > seg.MaxSegno {
		return nil, ErrNotEncodable
	}
	size := 8 + 2*wordBytes + stringWords(len(m.Segment))*wordBytes
	if m.Op == MutSetBrackets {
		if m.Brackets.R1 > 7 || m.Brackets.R2 > 7 || m.Brackets.R3 > 7 || m.Gates > seg.MaxGate {
			return nil, ErrNotEncodable
		}
		size += 2 * wordBytes
	} else if m.Read || m.Write || m.Execute || m.Brackets != (core.Brackets{}) || m.Gates != 0 {
		return nil, ErrNotEncodable
	}
	b := ensure(buf, HeaderLen+size)
	PutHeader(b, Header{Len: uint32(size), Type: FrameMutate, Corr: corr})
	binary.BigEndian.PutUint32(b[HeaderLen:], uint32(m.Op))
	binary.BigEndian.PutUint32(b[HeaderLen+4:], 0)
	off := putLenWord(b, HeaderLen+8, len(m.Segment))
	off = putWord(b, off, word.Word(0).Deposit(18, seg.SegnoBits, uint64(m.Segno)))
	off = putPackedString(b, off, m.Segment)
	if m.Op == MutSetBrackets {
		even, odd := seg.SDW{
			Present: true, Read: m.Read, Write: m.Write, Execute: m.Execute,
			Brackets: m.Brackets, Gate: m.Gates,
		}.Encode()
		off = putWord(b, off, even)
		putWord(b, off, odd)
	}
	return b, nil
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
	b := ensure(buf, HeaderLen+8)
	PutHeader(b, Header{Len: 8, Type: FrameMutated, Corr: corr})
	binary.BigEndian.PutUint64(b[HeaderLen:], version)
	return b
}

// ---- Ping / Pong ----

// EncodePing fills buf with a Ping frame.
func EncodePing(buf []byte, corr uint64) []byte {
	b := ensure(buf, HeaderLen)
	PutHeader(b, Header{Type: FramePing, Corr: corr})
	return b
}

// EncodePong fills buf with a Pong frame carrying the image shape.
func EncodePong(buf []byte, corr uint64, h Health) []byte {
	const size = 24
	b := ensure(buf, HeaderLen+size)
	PutHeader(b, Header{Len: size, Type: FramePong, Corr: corr})
	binary.BigEndian.PutUint32(b[HeaderLen:], h.Segments)
	binary.BigEndian.PutUint32(b[HeaderLen+4:], h.Shards)
	binary.BigEndian.PutUint32(b[HeaderLen+8:], h.Workers)
	binary.BigEndian.PutUint32(b[HeaderLen+12:], 0)
	binary.BigEndian.PutUint64(b[HeaderLen+16:], h.StoreVersion)
	return b
}

// decodePong decodes a Pong payload.
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
	if err := validString(msg, maxString); err != nil {
		return nil, err
	}
	size := 8 + wordBytes + stringWords(len(msg))*wordBytes
	b := ensure(buf, HeaderLen+size)
	PutHeader(b, Header{Len: uint32(size), Type: FrameError, Corr: corr})
	binary.BigEndian.PutUint16(b[HeaderLen:], code)
	binary.BigEndian.PutUint16(b[HeaderLen+2:], 0)
	binary.BigEndian.PutUint32(b[HeaderLen+4:], 0)
	off := putLenWord(b, HeaderLen+8, len(msg))
	putPackedString(b, off, msg)
	return b, nil
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
	b := ensure(buf, HeaderLen)
	PutHeader(b, Header{Type: FrameGoAway})
	return b
}

// ---- Subscribe / Shootdown / LeaseExpire ----
//
// The invalidation stream: a client that caches decisions subscribes
// once, after which every descriptor publication on its tenant fans
// out as a Shootdown push, and the lease itself is revoked with a
// LeaseExpire push when the tenant drains. Pushes carry correlation
// ID 0 — they answer no request.

// Shootdown is the payload of a FrameShootdown push: shard Shard
// published epoch Epoch after a mutation of segment Segno. Epoch is
// the authority — a cached decision for Shard with VersionLo < Epoch
// is stale; Segno is advisory (coalesced pushes report the latest
// edited segment).
type Shootdown struct {
	Shard uint32
	Segno uint32
	Epoch uint64
}

// LeaseExpire is the payload of a FrameLeaseExpire push: the
// subscription is revoked and every cached decision must be dropped.
// Code mirrors the error-code vocabulary (CodeConflict: the tenant is
// draining; CodeUnavailable: the server is shutting the stream down).
type LeaseExpire struct {
	Code uint16
}

// EncodeSubscribe fills buf with a Subscribe frame (empty payload).
func EncodeSubscribe(buf []byte, corr uint64) []byte {
	b := ensure(buf, HeaderLen)
	PutHeader(b, Header{Type: FrameSubscribe, Corr: corr})
	return b
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
	const size = 16
	b := ensure(buf, HeaderLen+size)
	PutHeader(b, Header{Len: size, Type: FrameShootdown})
	binary.BigEndian.PutUint32(b[HeaderLen:], sd.Shard)
	binary.BigEndian.PutUint32(b[HeaderLen+4:], sd.Segno)
	binary.BigEndian.PutUint64(b[HeaderLen+8:], sd.Epoch)
	return b, nil
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
	const size = 8
	b := ensure(buf, HeaderLen+size)
	PutHeader(b, Header{Len: size, Type: FrameLeaseExpire})
	binary.BigEndian.PutUint16(b[HeaderLen:], le.Code)
	binary.BigEndian.PutUint16(b[HeaderLen+2:], 0)
	binary.BigEndian.PutUint32(b[HeaderLen+4:], 0)
	return b, nil
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
