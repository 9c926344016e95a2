package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seg"
	"repro/internal/service"
	"repro/internal/tenant"
)

// FuzzDecodeFrame fuzzes the strict-decode property: any byte string
// that decodes must re-encode to exactly the bytes consumed (every
// reserved bit zero, every packed field canonical), and decoding must
// never panic or over-read.
func FuzzDecodeFrame(f *testing.F) {
	for _, g := range goldenFrames() {
		b, err := EncodeFrame(nil, g.Frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A torn header and a hostile length prefix.
	f.Add([]byte{0, 0, 0, 9, byte(FrameCheck)})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(FramePing), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < HeaderLen || n > len(data) {
			t.Fatalf("decode consumed %d bytes of %d", n, len(data))
		}
		re, err := EncodeFrame(nil, frame)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v\nframe: %+v", err, frame)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("round trip drifted:\n got %x\nwant %x", re, data[:n])
		}
	})
}

// FuzzEncodeRoundTrip drives the encoders with arbitrary field values,
// widths exceeded included: one query and one decision built from the
// fuzz arguments. Encoding either rejects the value with
// ErrNotEncodable and no frame, or yields a frame that decodes back to
// the same value and re-encodes to the same bytes. A decision's
// Violation is derived from its ViolationKind, as the codec defines.
func FuzzEncodeRoundTrip(f *testing.F) {
	// op, ring, kind, eff, same, segno, wordno, name, chain, then the
	// decision's flags, outcome, kind, new ring, shard, worker, version
	// and message.
	f.Add(uint8(0), uint8(4), int8(1), int16(-1), false, uint32(0), uint32(3), "data", []byte{},
		uint8(1), uint8(0), int8(0), uint8(0), int16(0), int32(0), uint64(2), "")
	f.Add(uint8(1), uint8(4), int8(0), int16(3), true, uint32(2), uint32(1), "", []byte{},
		uint8(1), uint8(2), int8(0), uint8(3), int16(1), int32(7), uint64(4), "")
	f.Add(uint8(3), uint8(2), int8(0), int16(-1), false, uint32(0), uint32(0), "", []byte{0x83, 0, 0, 0, 0x01, 0, 0, 9},
		uint8(0), uint8(0), int8(4), uint8(0), int16(-1), int32(1<<15-1), uint64(1<<60), "")
	f.Add(uint8(2), uint8(7), int8(3), int16(7), false, uint32(seg.MaxSegno), uint32(1<<seg.WordnoBits-1), "", []byte{},
		uint8(3), uint8(6), int8(core.ViolationKindCount-1), uint8(7), int16(126), int32(0), uint64(0), "invalid access kind 3")
	f.Add(uint8(4), uint8(8), int8(4), int16(8), false, uint32(seg.MaxSegno+1), uint32(1<<seg.WordnoBits), "da\x00ta", []byte{0x08, 0xFF, 0xFF, 0xFF},
		uint8(0), uint8(7), int8(core.ViolationKindCount), uint8(8), int16(127), int32(1<<15), uint64(1), "bad\x00")
	f.Add(uint8(0), uint8(0), int8(-1), int16(-1), false, uint32(3), uint32(0), "code", []byte{},
		uint8(0), uint8(0), int8(-1), uint8(0), int16(-2), int32(-1), uint64(0), strings.Repeat("x", maxString+1))
	ops := [...]service.Op{service.OpAccess, service.OpCall, service.OpReturn, service.OpEffRing, "sniff"}
	outcomes := append(outcomeName[:], "sideways call")
	f.Fuzz(func(t *testing.T, op, ring uint8, kind int8, eff int16, same bool, segno, wordno uint32, name string, chain []byte,
		flags, outcome uint8, vk int8, newRing uint8, shard int16, worker int32, version uint64, msg string) {
		q := service.Query{Op: ops[int(op)%len(ops)], Ring: core.Ring(ring), Kind: core.AccessKind(kind),
			SameSegment: same, Segno: segno, Wordno: wordno, Segment: name}
		if eff >= 0 {
			r := core.Ring(min(eff, 0xFF))
			q.EffRing = &r
		}
		// Four bytes per chain step: PR in the top bit and the ring in
		// the other seven, then a 24-bit segment number.
		for i := 0; i+4 <= len(chain); i += 4 {
			q.Chain = append(q.Chain, service.ChainStep{PR: chain[i]&0x80 != 0, Ring: core.Ring(chain[i] & 0x7F),
				Segno: uint32(chain[i+1])<<16 | uint32(chain[i+2])<<8 | uint32(chain[i+3])})
		}
		d := service.Decision{Allowed: flags&1 != 0, Trapped: flags&2 != 0,
			Outcome: outcomes[int(outcome)%len(outcomes)], ViolationKind: core.ViolationKind(vk),
			NewRing: core.Ring(newRing), Shard: int(shard), Worker: int(worker),
			VersionLo: version, VersionHi: version + uint64(flags), Err: msg}
		if vk != 0 {
			d.Violation = d.ViolationKind.String()
		}
		for _, fr := range []Frame{
			{Type: FrameCheck, Corr: version, Queries: []service.Query{q}},
			{Type: FrameDecisions, Corr: version, Decisions: []service.Decision{d}},
		} {
			b, err := EncodeFrame(nil, fr)
			if err != nil {
				if !errors.Is(err, ErrNotEncodable) || b != nil {
					t.Fatalf("%v: encode = %d bytes, %v; want no frame and ErrNotEncodable", fr.Type, len(b), err)
				}
				continue
			}
			got, n, err := DecodeFrame(b)
			if err != nil || n != len(b) {
				t.Fatalf("%v: encoded frame does not decode: %v (%d of %d bytes)", fr.Type, err, n, len(b))
			}
			if !reflect.DeepEqual(got, fr) {
				t.Fatalf("%v: decoded\n %+v\nwant\n %+v", fr.Type, got, fr)
			}
			re, err := EncodeFrame(nil, got)
			if err != nil || !bytes.Equal(re, b) {
				t.Fatalf("%v: re-encode drifted (%v):\n got %x\nwant %x", fr.Type, err, re, b)
			}
		}
	})
}

// fuzzServer lazily starts one shared wire server for FuzzSessionBytes
// (fuzz workers run many executions per process; one registry and
// listener serve them all).
var (
	fuzzOnce sync.Once
	fuzzAddr string
)

func fuzzServerAddr(f *testing.F) string {
	fuzzOnce.Do(func() {
		reg := tenant.NewRegistry(tenant.Config{})
		if _, err := reg.Load(tenant.DefaultTenant, testSegments(), tenant.TenantConfig{Workers: 1}); err != nil {
			f.Fatalf("load tenant: %v", err)
		}
		srv := NewServer(reg, Config{
			MaxFrame:         1 << 16,
			HandshakeTimeout: 200 * time.Millisecond,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Fatalf("listen: %v", err)
		}
		go srv.Serve(ln)
		fuzzAddr = ln.Addr().String()
	})
	return fuzzAddr
}

// FuzzSessionBytes feeds arbitrary bytes to a live session: the
// server must answer with well-formed frames or close the connection
// cleanly — never panic (a panic kills the fuzz process) and never
// hang past the handshake timeout.
func FuzzSessionBytes(f *testing.F) {
	addr := fuzzServerAddr(f)

	hello, err := EncodeHello(nil, Hello{MinVersion: 1, MaxVersion: 1})
	if err != nil {
		f.Fatal(err)
	}
	check, err := EncodeCheck(nil, 1, goldenQueries())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte{}, hello...), check...))
	f.Add(append(append([]byte{}, hello...), EncodePing(nil, 2)...))
	f.Add(append(append([]byte{}, hello...), EncodeSubscribe(nil, 3)...))
	f.Add(append(append([]byte{}, hello...), EncodeFetch(nil, 4, Fetch{Shards: 0xFF, Names: true})...))
	f.Add(append(append([]byte{}, hello...), EncodeFetch(nil, 5, Fetch{Shards: 1 << 40})...))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add(append(append([]byte{}, hello...), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		_, _ = conn.Write(data)
		// Half-close so a prefix of a valid frame surfaces EOF to the
		// session instead of a read that only the timeout ends.
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		// Drain whatever the server answers: every frame must parse.
		var buf []byte
		for {
			h, payload, err := readFrame(conn, &buf, DefaultMaxFrame)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("session hung instead of closing")
				}
				return
			}
			if !h.Type.valid() || int(h.Len) != len(payload) {
				t.Fatalf("malformed response frame: %+v", h)
			}
		}
	})
}
