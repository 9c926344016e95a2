package wire

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

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
