package seg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

// FuzzSDWRoundTrip checks SDW codec stability over arbitrary
// even/odd word pairs. Encode zeroes the reserved bits (25-24 of the
// even word, 32 of the odd word), so Encode(Decode(w)) need not equal
// w — the invariant is that decoding is a retraction:
// Decode(Encode(Decode(pair))) == Decode(pair), and re-encoding a
// decoded SDW is a fixed point. The access-control projection View and
// the String rendering must hold up for any bit pattern, since a
// descriptor segment is plain memory the supervisor could scribble on.
func FuzzSDWRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(word.Mask, word.Mask)
	seed := SDW{Present: true, Addr: 0o1000, Bound: 0o777, Read: true, Execute: true, Gate: 8}
	seed.Brackets.R1, seed.Brackets.R2, seed.Brackets.R3 = 1, 3, 5
	se, so := seed.Encode()
	f.Add(se.Uint64(), so.Uint64())
	f.Add(uint64(1)<<35, uint64(1)<<35) // present, read, everything else zero
	f.Fuzz(func(t *testing.T, evenRaw, oddRaw uint64) {
		even, odd := word.FromUint64(evenRaw), word.FromUint64(oddRaw)
		s := Decode(even, odd)
		e2, o2 := s.Encode()
		if s2 := Decode(e2, o2); s2 != s {
			t.Fatalf("decode not a retraction: %+v vs %+v", s, s2)
		}
		if e3, o3 := Decode(e2, o2).Encode(); e3 != e2 || o3 != o2 {
			t.Fatalf("encode not a fixed point: (%012o,%012o) vs (%012o,%012o)",
				e2.Uint64(), o2.Uint64(), e3.Uint64(), o3.Uint64())
		}
		v := s.View()
		if v.Present != s.Present || v.Bound != s.Bound || v.GateCount != s.Gate ||
			v.Brackets != s.Brackets || v.Read != s.Read || v.Write != s.Write || v.Execute != s.Execute {
			t.Fatalf("View dropped fields: %+v from %+v", v, s)
		}
		if str := s.String(); str == "" {
			t.Fatalf("empty String for %+v", s)
		}
		_ = s.Validate() // must not panic on any pattern
	})
}

// FuzzDBRRoundTrip checks the DBR codec the same way: decode is a
// retraction over arbitrary word pairs and encode is a fixed point on
// decoded values (the DBR ignores bits 24-35 even, 32-35 odd).
func FuzzDBRRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(word.Mask, word.Mask)
	de, do := DBR{Addr: 0o4000, Bound: 64, Stack: 0o100}.Encode()
	f.Add(de.Uint64(), do.Uint64())
	f.Fuzz(func(t *testing.T, evenRaw, oddRaw uint64) {
		even, odd := word.FromUint64(evenRaw), word.FromUint64(oddRaw)
		d := DecodeDBR(even, odd)
		e2, o2 := d.Encode()
		if d2 := DecodeDBR(e2, o2); d2 != d {
			t.Fatalf("decode not a retraction: %+v vs %+v", d, d2)
		}
		if e3, o3 := DecodeDBR(e2, o2).Encode(); e3 != e2 || o3 != o2 {
			t.Fatalf("encode not a fixed point")
		}
	})
}

// FuzzValidSDWCodec checks the converse direction: every present SDW
// that Validate accepts is encodable, so Decode(Encode(s)) == s. The
// decision service keeps descriptors decoded and never round-trips them
// through core, so this property is what makes its answers equal to
// the simulator's for every descriptor an edit can install. The seed
// with a gate count one past the 14-bit GATE field is the case
// Validate must reject rather than let Encode truncate.
func FuzzValidSDWCodec(f *testing.F) {
	f.Add(uint32(0o1000), uint32(0o777), uint32(8), uint8(1), uint8(3), uint8(5), uint8(0b101))
	f.Add(uint32(0), uint32(MaxGate+1), uint32(MaxGate+1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint32(1<<AddrBits-1), uint32(MaxBound), uint32(MaxGate), uint8(7), uint8(7), uint8(7), uint8(0b111))
	f.Fuzz(func(t *testing.T, addr, bound, gate uint32, r1, r2, r3, flags uint8) {
		s := SDW{Present: true, Addr: addr, Bound: bound, Gate: gate,
			Read: flags&1 != 0, Write: flags&2 != 0, Execute: flags&4 != 0}
		s.Brackets.R1, s.Brackets.R2, s.Brackets.R3 = core.Ring(r1), core.Ring(r2), core.Ring(r3)
		if s.Validate() != nil {
			return
		}
		if got := Decode(s.Encode()); got != s {
			t.Fatalf("valid SDW %+v decodes as %+v", s, got)
		}
	})
}
