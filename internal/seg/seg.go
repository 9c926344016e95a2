// Package seg implements the segmentation structures of the paper's
// Figure 3: segment descriptor words (SDWs), descriptor segments, and
// the descriptor base register (DBR).
//
// An SDW occupies an even/odd pair of 36-bit words in the descriptor
// segment; the segment number is the index of the pair. The fields and
// their packing:
//
//	word 0 (even):
//	  bit  35     F     present flag
//	  bits 34-32  R1    top of write bracket / bottom of execute bracket
//	  bits 31-29  R2    top of execute and read brackets
//	  bits 28-26  R3    top of gate extension
//	  bits 25-24  (zero)
//	  bits 23-0   ADDR  absolute core address of the segment base
//
//	word 1 (odd):
//	  bit  35     R     read flag
//	  bit  34     W     write flag
//	  bit  33     E     execute flag
//	  bit  32     (zero)
//	  bits 31-18  GATE  number of gate locations (gates are words 0..GATE-1)
//	  bits 17-0   BOUND segment length in words
//
// The packing itself is a simulator convention (the paper gives the
// field list, not bit positions), but the field set and widths — three
// 3-bit ring numbers, three flags, a gate length, base and bound — are
// exactly the paper's.
package seg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/word"
)

// SegnoBits is the width of a segment number: 14 bits, allowing 16384
// segments per descriptor segment.
const SegnoBits = 14

// MaxSegno is the largest valid segment number.
const MaxSegno = (1 << SegnoBits) - 1

// WordnoBits is the width of a word number within a segment.
const WordnoBits = 18

// MaxBound is the largest expressible segment length.
const MaxBound = (1 << WordnoBits) - 1

// AddrBits is the width of an absolute core address in an SDW.
const AddrBits = 24

// MaxGate is the largest gate count the SDW's 14-bit GATE field holds.
const MaxGate = (1 << 14) - 1

// SDW is a decoded segment descriptor word pair.
type SDW struct {
	Present  bool
	Addr     uint32 // absolute core address of word 0 of the segment
	Bound    uint32 // number of words in the segment
	Read     bool
	Write    bool
	Execute  bool
	Brackets core.Brackets
	Gate     uint32 // number of gate locations
}

// View projects the SDW into the access-control view consumed by the
// ring validation logic in internal/core.
func (s SDW) View() core.SDWView {
	return core.SDWView{
		Present:   s.Present,
		Read:      s.Read,
		Write:     s.Write,
		Execute:   s.Execute,
		Brackets:  s.Brackets,
		GateCount: s.Gate,
		Bound:     s.Bound,
	}
}

// FromView returns the descriptor with access-control content v and
// core address 0: the inverse of View for a segment with no core image,
// such as the decision service's descriptors.
func FromView(v core.SDWView) SDW {
	return SDW{
		Present:  v.Present,
		Bound:    v.Bound,
		Read:     v.Read,
		Write:    v.Write,
		Execute:  v.Execute,
		Brackets: v.Brackets,
		Gate:     v.GateCount,
	}
}

// Validate checks the SDW invariants supervisor code must maintain.
func (s SDW) Validate() error {
	if !s.Present {
		return nil
	}
	if err := s.Brackets.Validate(); err != nil {
		return err
	}
	if s.Bound > MaxBound {
		return fmt.Errorf("seg: bound %d exceeds %d", s.Bound, MaxBound)
	}
	if s.Gate > MaxGate {
		return fmt.Errorf("seg: gate count %d exceeds %d", s.Gate, MaxGate)
	}
	if s.Gate > s.Bound {
		return fmt.Errorf("seg: gate count %d exceeds bound %d", s.Gate, s.Bound)
	}
	if s.Addr >= 1<<AddrBits {
		return fmt.Errorf("seg: address %o exceeds %d bits", s.Addr, AddrBits)
	}
	return nil
}

// Encode packs the SDW into its even/odd word pair.
func (s SDW) Encode() (even, odd word.Word) {
	even = word.Word(0).
		WithBit(35, s.Present).
		Deposit(32, 3, uint64(s.Brackets.R1)).
		Deposit(29, 3, uint64(s.Brackets.R2)).
		Deposit(26, 3, uint64(s.Brackets.R3)).
		Deposit(0, 24, uint64(s.Addr))
	odd = word.Word(0).
		WithBit(35, s.Read).
		WithBit(34, s.Write).
		WithBit(33, s.Execute).
		Deposit(18, 14, uint64(s.Gate)).
		Deposit(0, 18, uint64(s.Bound))
	return even, odd
}

// Decode unpacks an SDW from its even/odd word pair.
func Decode(even, odd word.Word) SDW {
	return SDW{
		Present: even.Bit(35),
		Brackets: core.Brackets{
			R1: core.Ring(even.Field(32, 3)),
			R2: core.Ring(even.Field(29, 3)),
			R3: core.Ring(even.Field(26, 3)),
		},
		Addr:    uint32(even.Field(0, 24)),
		Read:    odd.Bit(35),
		Write:   odd.Bit(34),
		Execute: odd.Bit(33),
		Gate:    uint32(odd.Field(18, 14)),
		Bound:   uint32(odd.Field(0, 18)),
	}
}

func (s SDW) String() string {
	if !s.Present {
		return "SDW{absent}"
	}
	flag := func(b bool, c string) string {
		if b {
			return c
		}
		return "-"
	}
	return fmt.Sprintf("SDW{addr=%o bound=%o %s%s%s R1=%d R2=%d R3=%d gates=%d}",
		s.Addr, s.Bound,
		flag(s.Read, "r"), flag(s.Write, "w"), flag(s.Execute, "e"),
		s.Brackets.R1, s.Brackets.R2, s.Brackets.R3, s.Gate)
}

// DBR is the descriptor base register: the absolute address and length
// of the descriptor segment, plus the stack base field of the paper's
// Figure 8 footnote ("an additional DBR field that specifies the eight
// consecutively numbered segments that are the standard stack segments
// of the process").
type DBR struct {
	Addr  uint32 // absolute core address of the descriptor segment
	Bound uint32 // number of SDWs describable (pairs)
	Stack uint32 // first of the eight consecutive stack segment numbers
}

// Encode packs the DBR into a word pair so it can be stored in memory
// and loaded by the privileged LDBR instruction.
func (d DBR) Encode() (even, odd word.Word) {
	even = word.Word(0).Deposit(0, 24, uint64(d.Addr))
	odd = word.Word(0).
		Deposit(18, 14, uint64(d.Stack)).
		Deposit(0, 18, uint64(d.Bound))
	return even, odd
}

// DecodeDBR unpacks a DBR from its word pair.
func DecodeDBR(even, odd word.Word) DBR {
	return DBR{
		Addr:  uint32(even.Field(0, 24)),
		Bound: uint32(odd.Field(0, 18)),
		Stack: uint32(odd.Field(18, 14)),
	}
}

// Table provides SDW access on top of core memory for a given DBR —
// the indexed retrieval the address translation logic performs.
type Table struct {
	Mem mem.Store
	DBR DBR
}

// Fetch retrieves and decodes the SDW for segno. A segment number at or
// beyond the DBR bound decodes as an absent SDW (the reference will then
// raise a missing-segment fault), matching the behaviour of running off
// the end of a descriptor segment.
func (t Table) Fetch(segno uint32) (SDW, error) {
	if segno > MaxSegno || segno >= t.DBR.Bound {
		return SDW{}, nil
	}
	base := int(t.DBR.Addr) + 2*int(segno)
	even, err := t.Mem.Read(base)
	if err != nil {
		return SDW{}, err
	}
	odd, err := t.Mem.Read(base + 1)
	if err != nil {
		return SDW{}, err
	}
	return Decode(even, odd), nil
}

// Store encodes and writes the SDW for segno into the descriptor
// segment. Store is supervisor functionality: the simulator's image
// builder and ring-0 services use it; no unprivileged path reaches it.
func (t Table) Store(segno uint32, s SDW) error {
	if segno > MaxSegno || segno >= t.DBR.Bound {
		return fmt.Errorf("seg: segment number %o beyond descriptor bound %o", segno, t.DBR.Bound)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	even, odd := s.Encode()
	base := int(t.DBR.Addr) + 2*int(segno)
	if err := t.Mem.Write(base, even); err != nil {
		return err
	}
	return t.Mem.Write(base+1, odd)
}

// Translate converts a two-part (segno, wordno) address to an absolute
// core address using the given SDW. It assumes bound validation has
// already been performed by the access checks.
func Translate(s SDW, wordno uint32) int {
	return int(s.Addr) + int(wordno)
}
