package word

import (
	"testing"
	"testing/quick"
)

func TestFromUint64Truncates(t *testing.T) {
	w := FromUint64(^uint64(0))
	if w.Uint64() != Mask {
		t.Fatalf("FromUint64(all ones) = %o, want %o", w.Uint64(), Mask)
	}
}

func TestInt64RoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 42, -42, 1 << 34, -(1 << 34), (1 << 35) - 1, -(1 << 35)}
	for _, v := range cases {
		if got := FromInt(v).Int64(); got != v {
			t.Errorf("FromInt(%d).Int64() = %d", v, got)
		}
	}
}

func TestInt64Extremes(t *testing.T) {
	if got := FromInt(-(1 << 35)).Int64(); got != -(1 << 35) {
		t.Errorf("most negative: got %d", got)
	}
	// One past the most negative wraps to the most positive.
	if got := FromInt(-(1 << 35) - 1).Int64(); got != (1<<35)-1 {
		t.Errorf("wraparound: got %d, want %d", got, int64(1<<35)-1)
	}
}

func TestFieldDeposit(t *testing.T) {
	var w Word
	w = w.Deposit(0, 18, 0o777777)
	w = w.Deposit(18, 14, 0o12345)
	w = w.Deposit(32, 1, 1)
	w = w.Deposit(33, 3, 5)
	if got := w.Field(0, 18); got != 0o777777 {
		t.Errorf("field[0,18) = %o", got)
	}
	if got := w.Field(18, 14); got != 0o12345 {
		t.Errorf("field[18,14) = %o", got)
	}
	if got := w.Field(32, 1); got != 1 {
		t.Errorf("field[32,1) = %o", got)
	}
	if got := w.Field(33, 3); got != 5 {
		t.Errorf("field[33,3) = %o", got)
	}
}

func TestDepositMasksValue(t *testing.T) {
	w := Word(0).Deposit(3, 4, 0xFFFF)
	if got := w.Field(3, 4); got != 0xF {
		t.Errorf("field = %x, want F", got)
	}
	if got := w.Field(7, 8); got != 0 {
		t.Errorf("overflow leaked into adjacent bits: %x", got)
	}
	if got := w.Field(0, 3); got != 0 {
		t.Errorf("overflow leaked below: %x", got)
	}
}

// wantFieldPanic runs f, which must panic with an error whose message
// is want.
func wantFieldPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s beyond bit 35 did not panic", name)
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("%s panicked with %T %v, want an error", name, r, r)
		}
		if got := err.Error(); got != want {
			t.Errorf("%s panic message %q, want %q", name, got, want)
		}
	}()
	f()
}

func TestFieldPanicsOutOfRange(t *testing.T) {
	wantFieldPanic(t, "Field", "word: field [30,37) exceeds 36 bits", func() { Word(0).Field(30, 7) })
}

func TestBitPanicsOutOfRange(t *testing.T) {
	wantFieldPanic(t, "Bit", "word: field [36,37) exceeds 36 bits", func() { Word(0).Bit(36) })
}

func TestWithBitPanicsOutOfRange(t *testing.T) {
	wantFieldPanic(t, "WithBit(true)", "word: field [36,37) exceeds 36 bits", func() { Word(0).WithBit(36, true) })
	wantFieldPanic(t, "WithBit(false)", "word: field [40,41) exceeds 36 bits", func() { Word(0).WithBit(40, false) })
}

func TestHalves(t *testing.T) {
	w := FromHalves(0o400000, 0o000777)
	if w.Upper() != 0o400000 {
		t.Errorf("Upper = %o", w.Upper())
	}
	if w.Lower() != 0o000777 {
		t.Errorf("Lower = %o", w.Lower())
	}
}

func TestSignExtend18(t *testing.T) {
	if got := SignExtend18(0o777777); got != -1 {
		t.Errorf("SignExtend18(777777) = %d, want -1", got)
	}
	if got := SignExtend18(0o377777); got != (1<<17)-1 {
		t.Errorf("SignExtend18(377777) = %d", got)
	}
	if got := SignExtend18(5); got != 5 {
		t.Errorf("SignExtend18(5) = %d", got)
	}
}

func TestAdd18Wraps(t *testing.T) {
	if got := Add18(0o777777, 1); got != 0 {
		t.Errorf("Add18 wrap = %o", got)
	}
	if got := Add18(0, -1); got != 0o777777 {
		t.Errorf("Add18 underflow = %o", got)
	}
	if got := Add18(100, 23); got != 123 {
		t.Errorf("Add18 = %d", got)
	}
}

func TestAddCarry(t *testing.T) {
	sum, carry := Add(FromUint64(Mask), 1)
	if !sum.IsZero() || !carry {
		t.Errorf("Add(max,1) = %v carry=%v", sum, carry)
	}
	sum, carry = Add(2, 3)
	if sum != 5 || carry {
		t.Errorf("Add(2,3) = %v carry=%v", sum, carry)
	}
}

func TestSubBorrow(t *testing.T) {
	d, borrow := Sub(0, 1)
	if d.Uint64() != Mask || !borrow {
		t.Errorf("Sub(0,1) = %v borrow=%v", d, borrow)
	}
	d, borrow = Sub(5, 3)
	if d != 2 || borrow {
		t.Errorf("Sub(5,3) = %v borrow=%v", d, borrow)
	}
}

func TestNeg(t *testing.T) {
	if Neg(FromInt(7)).Int64() != -7 {
		t.Error("Neg(7) != -7")
	}
	if !Neg(0).IsZero() {
		t.Error("Neg(0) != 0")
	}
}

func TestIndicatorsHelpers(t *testing.T) {
	if !FromInt(-1).IsNegative() {
		t.Error("-1 not negative")
	}
	if FromInt(1).IsNegative() {
		t.Error("1 negative")
	}
	if !Word(0).IsZero() {
		t.Error("0 not zero")
	}
}

func TestString(t *testing.T) {
	if got := FromUint64(0o123456701234).String(); got != "123456701234" {
		t.Errorf("String = %q", got)
	}
}

// Property: Deposit followed by Field is the identity on the deposited
// value (masked to the field width), for every field layout used by the
// storage formats.
func TestQuickDepositFieldRoundTrip(t *testing.T) {
	f := func(raw uint64, val uint64, loSeed, widthSeed uint8) bool {
		lo := uint(loSeed) % Bits
		width := uint(widthSeed)%(Bits-lo) + 1
		w := FromUint64(raw).Deposit(lo, width, val)
		return w.Field(lo, width) == val&((1<<width)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Deposit does not disturb bits outside the field.
func TestQuickDepositPreservesOtherBits(t *testing.T) {
	f := func(raw uint64, val uint64, loSeed, widthSeed uint8) bool {
		lo := uint(loSeed) % Bits
		width := uint(widthSeed)%(Bits-lo) + 1
		orig := FromUint64(raw)
		w := orig.Deposit(lo, width, val)
		m := ((uint64(1)<<width - 1) << lo)
		return (w.Uint64() &^ m) == (orig.Uint64() &^ m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: 36-bit two's-complement round trip.
func TestQuickIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		// Clamp to 36-bit signed range.
		v %= 1 << 35
		return FromInt(v).Int64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: halves round trip.
func TestQuickHalvesRoundTrip(t *testing.T) {
	f := func(u, l uint32) bool {
		u &= uint32(HalfMask)
		l &= uint32(HalfMask)
		w := FromHalves(u, l)
		return w.Upper() == u && w.Lower() == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add/Sub are inverses modulo 2^36.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b uint64) bool {
		wa, wb := FromUint64(a), FromUint64(b)
		sum, _ := Add(wa, wb)
		diff, _ := Sub(sum, wb)
		return diff == wa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitAndWithBit(t *testing.T) {
	w := Word(0).WithBit(35, true).WithBit(0, true)
	if !w.Bit(35) || !w.Bit(0) || w.Bit(17) {
		t.Errorf("bits: %v", w)
	}
	w = w.WithBit(35, false)
	if w.Bit(35) {
		t.Error("bit 35 still set")
	}
}

func TestDepositPanicsOutOfRange(t *testing.T) {
	wantFieldPanic(t, "Deposit", "word: field [30,37) exceeds 36 bits", func() { Word(0).Deposit(30, 7, 1) })
}

func TestPackCharsLayout(t *testing.T) {
	words := PackChars("ABCD")
	if len(words) != 1 {
		t.Fatalf("words: %d", len(words))
	}
	// 'A' in the high 9 bits, 'D' in the low 9.
	if got := words[0].Field(27, 9); got != 'A' {
		t.Errorf("high char %c", rune(got))
	}
	if got := words[0].Field(0, 9); got != 'D' {
		t.Errorf("low char %c", rune(got))
	}
}

func TestPackCharsPadding(t *testing.T) {
	words := PackChars("ab")
	if len(words) != 1 {
		t.Fatalf("words: %d", len(words))
	}
	if got := words[0].Field(9, 9); got != 0 {
		t.Error("padding not NUL")
	}
	if got := UnpackChars(words); got != "ab" {
		t.Errorf("round trip %q", got)
	}
	if UnpackChars(nil) != "" {
		t.Error("empty unpack")
	}
}

func TestQuickPackCharsRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		// NULs are padding and cannot round-trip by design.
		clean := make([]byte, 0, len(raw))
		for _, b := range raw {
			if b != 0 {
				clean = append(clean, b)
			}
		}
		s := string(clean)
		return UnpackChars(PackChars(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
