// Package word models the 36-bit machine word of the simulated processor.
//
// The hardware described by Schroeder and Saltzer was built in the
// technology of the Honeywell 6000 series, a 36-bit architecture. All
// storage formats in the paper's Figure 3 (instruction words, indirect
// words, segment descriptor words) are 36-bit words; this package provides
// the word type and the field packing primitives those formats are built
// from.
//
// A Word is stored in the low 36 bits of a uint64. All operations mask
// their results to 36 bits. Bit 0 is the least significant bit; bit 35 is
// the most significant (sign) bit.
package word

import "fmt"

// Bits is the width of a machine word.
const Bits = 36

// Mask covers the 36 significant bits of a Word.
const Mask = (uint64(1) << Bits) - 1

// SignBit is the most significant bit of a Word, used by the signed
// arithmetic helpers.
const SignBit = uint64(1) << (Bits - 1)

// HalfBits is the width of a half word (an 18-bit address offset).
const HalfBits = 18

// HalfMask covers an 18-bit half word.
const HalfMask = (uint64(1) << HalfBits) - 1

// Word is one 36-bit machine word.
type Word uint64

// FromUint64 truncates v to 36 bits.
func FromUint64(v uint64) Word { return Word(v & Mask) }

// FromInt converts a signed integer to its 36-bit two's-complement
// representation.
func FromInt(v int64) Word { return Word(uint64(v) & Mask) }

// Uint64 returns the word as an unsigned 64-bit integer (high bits zero).
func (w Word) Uint64() uint64 { return uint64(w) & Mask }

// Int64 interprets the word as a 36-bit two's-complement integer.
func (w Word) Int64() int64 {
	v := uint64(w) & Mask
	if v&SignBit != 0 {
		return int64(v | ^Mask)
	}
	return int64(v)
}

// fieldError is the panic value of a field helper given an extent that
// does not fit in a word. It formats its message only when asked, so
// the range check costs the helpers one compare and they stay small
// enough to inline.
type fieldError struct{ lo, width uint }

func (e fieldError) Error() string {
	return fmt.Sprintf("word: field [%d,%d) exceeds %d bits", e.lo, e.lo+e.width, Bits)
}

// Field extracts width bits starting at bit lo (lo=0 is the least
// significant bit). It panics if the requested field does not fit in a
// word; field layouts are compile-time constants in this codebase, so a
// bad extent is a programming error, not a runtime condition.
func (w Word) Field(lo, width uint) uint64 {
	if lo+width > Bits {
		panic(fieldError{lo, width})
	}
	return (uint64(w) >> lo) & ((1 << width) - 1)
}

// Bit reports whether bit n is set.
func (w Word) Bit(n uint) bool { return w.Field(n, 1) != 0 }

// Deposit returns a copy of w with width bits starting at bit lo replaced
// by the low bits of val. Bits of val beyond width are ignored.
func (w Word) Deposit(lo, width uint, val uint64) Word {
	if lo+width > Bits {
		panic(fieldError{lo, width})
	}
	m := ((uint64(1) << width) - 1) << lo
	return Word((uint64(w) &^ m) | ((val << lo) & m))
}

// WithBit returns a copy of w with bit n set to b.
func (w Word) WithBit(n uint, b bool) Word {
	var v uint64
	if b {
		v = 1
	}
	return w.Deposit(n, 1, v)
}

// Lower returns the low 18-bit half word.
func (w Word) Lower() uint32 { return uint32(uint64(w) & HalfMask) }

// Upper returns the high 18-bit half word.
func (w Word) Upper() uint32 { return uint32((uint64(w) >> HalfBits) & HalfMask) }

// FromHalves assembles a word from two 18-bit halves.
func FromHalves(upper, lower uint32) Word {
	return Word(((uint64(upper) & HalfMask) << HalfBits) | (uint64(lower) & HalfMask))
}

// SignExtend18 interprets an 18-bit half word as a signed value.
func SignExtend18(v uint32) int32 {
	v &= uint32(HalfMask)
	if v&(1<<(HalfBits-1)) != 0 {
		return int32(v | ^uint32(HalfMask))
	}
	return int32(v)
}

// Add18 adds a signed displacement to an 18-bit word offset, wrapping
// modulo 2^18 the way the hardware's address adder does.
func Add18(base uint32, disp int32) uint32 {
	return uint32((int64(base) + int64(disp))) & uint32(HalfMask)
}

// Add returns w+v with 36-bit wraparound and reports carry out of bit 35.
func Add(w, v Word) (sum Word, carry bool) {
	s := (uint64(w) & Mask) + (uint64(v) & Mask)
	return Word(s & Mask), s > Mask
}

// Sub returns w-v with 36-bit wraparound and reports borrow.
func Sub(w, v Word) (diff Word, borrow bool) {
	d := (uint64(w) & Mask) - (uint64(v) & Mask)
	return Word(d & Mask), uint64(w)&Mask < uint64(v)&Mask
}

// Neg returns the two's-complement negation of w.
func Neg(w Word) Word { return Word((-uint64(w)) & Mask) }

// IsNegative reports whether the sign bit of w is set.
func (w Word) IsNegative() bool { return uint64(w)&SignBit != 0 }

// IsZero reports whether w is all zero bits.
func (w Word) IsZero() bool { return uint64(w)&Mask == 0 }

// String renders the word in the octal notation conventional for 36-bit
// machines: twelve octal digits.
func (w Word) String() string { return fmt.Sprintf("%012o", uint64(w)&Mask) }

// PackChars packs text into words, four 9-bit characters per word, high
// character first, NUL padded — the character convention of 36-bit
// Multics-era machines.
func PackChars(s string) []Word {
	var out []Word
	for i := 0; i < len(s); i += 4 {
		var w Word
		for j := 0; j < 4; j++ {
			var ch byte
			if i+j < len(s) {
				ch = s[i+j]
			}
			w = w.Deposit(uint(27-9*j), 9, uint64(ch))
		}
		out = append(out, w)
	}
	return out
}

// UnpackChars reverses PackChars, dropping NUL padding.
func UnpackChars(words []Word) string {
	out := make([]byte, 0, 4*len(words))
	for _, w := range words {
		for j := 0; j < 4; j++ {
			ch := byte(w.Field(uint(27-9*j), 9))
			if ch != 0 {
				out = append(out, ch)
			}
		}
	}
	return string(out)
}
