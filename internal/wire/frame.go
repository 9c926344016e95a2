package wire

import (
	"encoding/binary"

	"repro/internal/service"
)

// Frame is the decoded form of any frame — the union the golden and
// fuzz tests round-trip through. Only the field selected by Type is
// meaningful.
type Frame struct {
	Type FrameType
	Corr uint64

	Hello        Hello              // FrameHello
	Welcome      Welcome            // FrameWelcome
	Queries      []service.Query    // FrameCheck
	Decisions    []service.Decision // FrameDecisions
	Mutation     Mutation           // FrameMutate
	StoreVersion uint64             // FrameMutated
	Health       Health             // FramePong
	Err          ErrFrame           // FrameError
	Shootdown    Shootdown          // FrameShootdown
	Expire       LeaseExpire        // FrameLeaseExpire
	Fetch        Fetch              // FrameFetch
	Tables       Tables             // FrameTables
}

// DecodeFrame decodes one complete frame from the front of b,
// returning the frame and the number of bytes consumed. Decoding is
// strict: every reserved bit zero, every field canonical, the payload
// consumed exactly — so EncodeFrame(DecodeFrame(b)) reproduces b byte
// for byte (the FuzzDecodeFrame property).
func DecodeFrame(b []byte) (Frame, int, error) {
	var f Frame
	if len(b) < HeaderLen {
		return f, 0, ErrBadFrame
	}
	h, err := ParseHeader(b)
	if err != nil {
		return f, 0, err
	}
	if h.Len > DefaultMaxFrame {
		return f, 0, ErrFrameTooLarge
	}
	total := HeaderLen + int(h.Len)
	if len(b) < total {
		return f, 0, ErrBadFrame
	}
	p := b[HeaderLen:total]
	f.Type, f.Corr = h.Type, h.Corr
	switch h.Type {
	case FrameHello:
		if h.Corr != 0 {
			return f, 0, ErrBadFrame
		}
		f.Hello, err = decodeHello(p)
	case FrameWelcome:
		if h.Corr != 0 {
			return f, 0, ErrBadFrame
		}
		f.Welcome, err = decodeWelcome(p)
	case FrameCheck:
		var batch Batch
		if err = DecodeCheckInto(p, &batch); err == nil {
			f.Queries = batch.Queries
		}
	case FrameDecisions:
		if len(p) < 8 {
			return f, 0, ErrBadFrame
		}
		count := binary.BigEndian.Uint32(p[0:4])
		if uint64(count)*(wordBytes+16) > uint64(len(p)-8) {
			return f, 0, ErrBadFrame
		}
		dst := make([]service.Decision, count)
		var n int
		if n, err = DecodeDecisionsInto(p, dst); err == nil {
			f.Decisions = dst[:n]
		}
	case FrameMutate:
		f.Mutation, err = decodeMutate(p)
	case FrameMutated:
		if len(p) != 8 {
			return f, 0, ErrBadFrame
		}
		f.StoreVersion = binary.BigEndian.Uint64(p)
	case FramePing:
		if len(p) != 0 {
			return f, 0, ErrBadFrame
		}
	case FramePong:
		f.Health, err = decodePong(p)
	case FrameError:
		f.Err, err = decodeError(p)
	case FrameGoAway:
		if h.Corr != 0 || len(p) != 0 {
			return f, 0, ErrBadFrame
		}
	case FrameSubscribe:
		if len(p) != 0 {
			return f, 0, ErrBadFrame
		}
	case FrameShootdown:
		if h.Corr != 0 {
			return f, 0, ErrBadFrame
		}
		f.Shootdown, err = decodeShootdown(p)
	case FrameLeaseExpire:
		if h.Corr != 0 {
			return f, 0, ErrBadFrame
		}
		f.Expire, err = decodeLeaseExpire(p)
	case FrameFetch:
		f.Fetch, err = decodeFetch(p)
	case FrameTables:
		f.Tables, err = decodeTables(p)
	}
	if err != nil {
		return Frame{}, 0, err
	}
	return f, total, nil
}

// EncodeFrame encodes f into buf (reusing its storage when large
// enough) and returns the complete frame.
func EncodeFrame(buf []byte, f Frame) ([]byte, error) {
	switch f.Type {
	case FrameHello:
		if f.Corr != 0 {
			return nil, ErrNotEncodable
		}
		return EncodeHello(buf, f.Hello)
	case FrameWelcome:
		if f.Corr != 0 {
			return nil, ErrNotEncodable
		}
		return EncodeWelcome(buf, f.Welcome)
	case FrameCheck:
		return EncodeCheck(buf, f.Corr, f.Queries)
	case FrameDecisions:
		return EncodeDecisions(buf, f.Corr, f.Decisions)
	case FrameMutate:
		return EncodeMutate(buf, f.Corr, f.Mutation)
	case FrameMutated:
		return EncodeMutated(buf, f.Corr, f.StoreVersion), nil
	case FramePing:
		return EncodePing(buf, f.Corr), nil
	case FramePong:
		return EncodePong(buf, f.Corr, f.Health), nil
	case FrameError:
		return EncodeError(buf, f.Corr, f.Err.Code, f.Err.Msg)
	case FrameGoAway:
		if f.Corr != 0 {
			return nil, ErrNotEncodable
		}
		return EncodeGoAway(buf), nil
	case FrameSubscribe:
		return EncodeSubscribe(buf, f.Corr), nil
	case FrameShootdown:
		if f.Corr != 0 {
			return nil, ErrNotEncodable
		}
		return EncodeShootdown(buf, f.Shootdown)
	case FrameLeaseExpire:
		if f.Corr != 0 {
			return nil, ErrNotEncodable
		}
		return EncodeLeaseExpire(buf, f.Expire)
	case FrameFetch:
		return EncodeFetch(buf, f.Corr, f.Fetch), nil
	case FrameTables:
		return EncodeTables(buf, f.Corr, &f.Tables)
	default:
		return nil, ErrNotEncodable
	}
}
