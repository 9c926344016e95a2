package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// figure1SDW is the writable data segment of the paper's Figure 1:
// readable and writable, not executable, write bracket top 4, read
// bracket top 5.
func figure1SDW() SDWView {
	return SDWView{
		Present: true,
		Read:    true, Write: true, Execute: false,
		Brackets: Brackets{R1: 4, R2: 5, R3: 5},
		Bound:    1024,
	}
}

// figure2SDW is the gated pure procedure segment of the paper's Figure 2:
// readable and executable, not writable, execute bracket [3,3], gate
// extension up to 5, two gate locations.
func figure2SDW() SDWView {
	return SDWView{
		Present: true,
		Read:    true, Write: false, Execute: true,
		Brackets:  Brackets{R1: 3, R2: 3, R3: 5},
		GateCount: 2,
		Bound:     512,
	}
}

func TestRingValid(t *testing.T) {
	for r := Ring(0); r < NumRings; r++ {
		if !r.Valid() {
			t.Errorf("ring %d should be valid", r)
		}
	}
	if Ring(8).Valid() {
		t.Error("ring 8 should be invalid")
	}
}

func TestMaxRing(t *testing.T) {
	if MaxRing(3, 5) != 5 || MaxRing(5, 3) != 5 || MaxRing(4, 4) != 4 {
		t.Error("MaxRing wrong")
	}
}

func TestBracketsValidate(t *testing.T) {
	good := []Brackets{{0, 0, 0}, {0, 7, 7}, {3, 3, 5}, {7, 7, 7}, {1, 4, 6}}
	for _, b := range good {
		if err := b.Validate(); err != nil {
			t.Errorf("%+v: %v", b, err)
		}
	}
	bad := []Brackets{{1, 0, 0}, {0, 5, 4}, {6, 3, 7}, {0, 0, 8}, {9, 9, 9}}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("%+v: expected error", b)
		}
	}
}

func TestBracketMembership(t *testing.T) {
	b := Brackets{R1: 2, R2: 4, R3: 6}
	for r := Ring(0); r < NumRings; r++ {
		if got, want := b.InWriteBracket(r), r <= 2; got != want {
			t.Errorf("write ring %d: %v", r, got)
		}
		if got, want := b.InReadBracket(r), r <= 4; got != want {
			t.Errorf("read ring %d: %v", r, got)
		}
		if got, want := b.InExecuteBracket(r), r >= 2 && r <= 4; got != want {
			t.Errorf("execute ring %d: %v", r, got)
		}
		if got, want := b.InGateExtension(r), r >= 5 && r <= 6; got != want {
			t.Errorf("gate ext ring %d: %v", r, got)
		}
	}
}

func TestSDWViewValidate(t *testing.T) {
	v := figure2SDW()
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	v.GateCount = 1000 // exceeds bound
	if err := v.Validate(); err == nil {
		t.Error("gate count beyond bound accepted")
	}
	v = SDWView{Present: false}
	if err := v.Validate(); err != nil {
		t.Errorf("absent SDW should validate: %v", err)
	}
	v = figure1SDW()
	v.Brackets = Brackets{R1: 5, R2: 2, R3: 7}
	if err := v.Validate(); err == nil {
		t.Error("inverted brackets accepted")
	}
}

// ---------------------------------------------------------------------
// Figure 1: writable data segment semantics.

func TestFigure1AccessByRing(t *testing.T) {
	v := figure1SDW()
	for r := Ring(0); r < NumRings; r++ {
		wantWrite := r <= 4
		wantRead := r <= 5
		if got := CheckWrite(v, 0, r) == nil; got != wantWrite {
			t.Errorf("write from ring %d: got %v want %v", r, got, wantWrite)
		}
		if got := CheckRead(v, 0, r) == nil; got != wantRead {
			t.Errorf("read from ring %d: got %v want %v", r, got, wantRead)
		}
		// Data segment: never executable from any ring.
		if CheckFetch(v, 0, r) == nil {
			t.Errorf("fetch from ring %d allowed on data segment", r)
		}
	}
}

// ---------------------------------------------------------------------
// Figure 2: gated pure procedure semantics.

func TestFigure2AccessByRing(t *testing.T) {
	v := figure2SDW()
	for r := Ring(0); r < NumRings; r++ {
		if got, want := CheckFetch(v, 10, r) == nil, r == 3; got != want {
			t.Errorf("fetch from ring %d: got %v want %v", r, got, want)
		}
		if got, want := CheckRead(v, 10, r) == nil, r <= 3; got != want {
			t.Errorf("read from ring %d: got %v want %v", r, got, want)
		}
		// Pure procedure: never writable.
		if CheckWrite(v, 10, r) == nil {
			t.Errorf("write from ring %d allowed on pure procedure", r)
		}
	}
}

// ---------------------------------------------------------------------
// Figure 4: instruction fetch validation.

func TestCheckFetchViolationKinds(t *testing.T) {
	v := figure2SDW()
	if viol := CheckFetch(v, 600, 3); viol == nil || viol.Kind != ViolationBound {
		t.Errorf("beyond bound: %v", viol)
	}
	if viol := CheckFetch(SDWView{}, 0, 3); viol == nil || viol.Kind != ViolationMissingSegment {
		t.Errorf("missing segment: %v", viol)
	}
	noE := v
	noE.Execute = false
	if viol := CheckFetch(noE, 0, 3); viol == nil || viol.Kind != ViolationNoExecute {
		t.Errorf("execute flag off: %v", viol)
	}
	// Figure 4 tests the E flag before the execute bracket: with both
	// failing, the flag is what is reported.
	for _, r := range []Ring{1, 5} {
		if viol := CheckFetch(noE, 0, r); viol == nil || viol.Kind != ViolationNoExecute {
			t.Errorf("execute flag off, ring %d outside the bracket: %v", r, viol)
		}
	}
	if viol := CheckFetch(v, 0, 5); viol == nil || viol.Kind != ViolationExecuteBracket {
		t.Errorf("above execute bracket: %v", viol)
	}
	if viol := CheckFetch(v, 0, 1); viol == nil || viol.Kind != ViolationExecuteBracket {
		t.Errorf("below execute bracket: %v", viol)
	}
}

// ---------------------------------------------------------------------
// Figure 5: effective ring computation.

func TestEffectiveRingPR(t *testing.T) {
	if EffectiveRingPR(4, 2) != 4 {
		t.Error("PR ring below current must not lower the effective ring")
	}
	if EffectiveRingPR(2, 6) != 6 {
		t.Error("PR ring above current must raise the effective ring")
	}
}

func TestEffectiveRingIndirect(t *testing.T) {
	// Current 1, indirect word ring 0, container writable up to ring 5:
	// a ring-5 procedure could have forged the indirect word, so the
	// effective ring must become 5.
	if got := EffectiveRingIndirect(1, 0, 5); got != 5 {
		t.Errorf("got %d, want 5", got)
	}
	// Indirect word carries an explicit high ring: honored.
	if got := EffectiveRingIndirect(1, 6, 0); got != 6 {
		t.Errorf("got %d, want 6", got)
	}
	// Nothing raises: stays at current.
	if got := EffectiveRingIndirect(4, 0, 0); got != 4 {
		t.Errorf("got %d, want 4", got)
	}
}

// ---------------------------------------------------------------------
// Figure 6: read/write validation corner cases.

func TestCheckReadWriteViolationKinds(t *testing.T) {
	v := figure1SDW()
	if viol := CheckRead(v, 2000, 0); viol == nil || viol.Kind != ViolationBound {
		t.Errorf("read beyond bound: %v", viol)
	}
	if viol := CheckRead(v, 0, 6); viol == nil || viol.Kind != ViolationReadBracket {
		t.Errorf("read above bracket: %v", viol)
	}
	noR := v
	noR.Read = false
	if viol := CheckRead(noR, 0, 0); viol == nil || viol.Kind != ViolationNoRead {
		t.Errorf("read flag off: %v", viol)
	}
	if viol := CheckWrite(v, 0, 5); viol == nil || viol.Kind != ViolationWriteBracket {
		t.Errorf("write above bracket: %v", viol)
	}
	noW := v
	noW.Write = false
	if viol := CheckWrite(noW, 0, 0); viol == nil || viol.Kind != ViolationNoWrite {
		t.Errorf("write flag off: %v", viol)
	}
}

// ---------------------------------------------------------------------
// Figure 7: transfer advance check.

func TestCheckTransfer(t *testing.T) {
	v := figure2SDW()
	if viol := CheckTransfer(v, 5, 3, 3); viol != nil {
		t.Errorf("legal same-ring transfer: %v", viol)
	}
	// Effective ring above current: ring alarm, even if the target would
	// otherwise validate.
	if viol := CheckTransfer(v, 5, 3, 4); viol == nil || viol.Kind != ViolationRingAlarm {
		t.Errorf("raised effective ring: %v", viol)
	}
	// Current ring outside execute bracket.
	if viol := CheckTransfer(v, 5, 4, 4); viol == nil || viol.Kind != ViolationExecuteBracket {
		t.Errorf("ring 4 transfer, effRing 4: %v", viol)
	}
	if viol := CheckTransfer(v, 5, 2, 2); viol == nil || viol.Kind != ViolationExecuteBracket {
		t.Errorf("ring 2 transfer below bracket: %v", viol)
	}
}

// ---------------------------------------------------------------------
// Figure 8: CALL decisions.

func TestDecideCallSameRing(t *testing.T) {
	v := figure2SDW()
	d, viol := DecideCall(v, 0, 3, 3, false)
	if viol != nil {
		t.Fatalf("same-ring gated call: %v", viol)
	}
	if d.Outcome != CallSameRing || d.NewRing != 3 {
		t.Errorf("decision: %+v", d)
	}
}

func TestDecideCallDownward(t *testing.T) {
	v := figure2SDW()
	for caller := Ring(4); caller <= 5; caller++ {
		d, viol := DecideCall(v, 1, caller, caller, false)
		if viol != nil {
			t.Fatalf("downward call from ring %d: %v", caller, viol)
		}
		if d.Outcome != CallDownward || d.NewRing != 3 {
			t.Errorf("from ring %d: %+v", caller, d)
		}
	}
}

func TestDecideCallAboveGateExtension(t *testing.T) {
	v := figure2SDW()
	_, viol := DecideCall(v, 0, 6, 6, false)
	if viol == nil || viol.Kind != ViolationGateExtension {
		t.Errorf("call from ring 6: %v", viol)
	}
}

func TestDecideCallNotAGate(t *testing.T) {
	v := figure2SDW()
	// Word 2 is not a gate (gates are 0 and 1).
	_, viol := DecideCall(v, 2, 4, 4, false)
	if viol == nil || viol.Kind != ViolationNotAGate {
		t.Errorf("non-gate call: %v", viol)
	}
	// Even a same-ring call must hit a gate when crossing segments.
	_, viol = DecideCall(v, 2, 3, 3, false)
	if viol == nil || viol.Kind != ViolationNotAGate {
		t.Errorf("same-ring non-gate call: %v", viol)
	}
}

func TestDecideCallSameSegmentBypassesGates(t *testing.T) {
	v := figure2SDW()
	d, viol := DecideCall(v, 100, 3, 3, true)
	if viol != nil {
		t.Fatalf("internal call: %v", viol)
	}
	if d.Outcome != CallSameRing || d.NewRing != 3 {
		t.Errorf("internal call decision: %+v", d)
	}
}

func TestDecideCallUpwardTrap(t *testing.T) {
	v := figure2SDW()
	d, viol := DecideCall(v, 0, 1, 1, false)
	if viol != nil {
		t.Fatalf("upward call should trap, not violate: %v", viol)
	}
	if d.Outcome != CallUpwardTrap || d.NewRing != 3 {
		t.Errorf("upward decision: %+v", d)
	}
}

func TestDecideCallRingAlarm(t *testing.T) {
	v := figure2SDW()
	// Executing in ring 1; effective ring raised to 3 by a pointer
	// register. With respect to TPR.RING this looks like a same-ring
	// call, but with respect to IPR.RING it is upward: access violation.
	_, viol := DecideCall(v, 0, 1, 3, false)
	if viol == nil || viol.Kind != ViolationRingAlarm {
		t.Errorf("disguised upward call: %v", viol)
	}
	// Executing in ring 2; effective ring raised to 4 (gate extension,
	// R2=3 > 2 = iprRing): also an alarm.
	_, viol = DecideCall(v, 0, 2, 4, false)
	if viol == nil || viol.Kind != ViolationRingAlarm {
		t.Errorf("disguised upward gated call: %v", viol)
	}
}

func TestDecideCallDownwardViaRaisedEffRing(t *testing.T) {
	// Executing in ring 5, effective ring still 5 via gate extension,
	// R2 = 3 ≤ 5: legitimate downward call even though a PR raised
	// nothing. Also check a raised effective ring that stays legal:
	// caller ring 5, effRing 5 (gate ext) → fine.
	v := figure2SDW()
	d, viol := DecideCall(v, 0, 5, 5, false)
	if viol != nil || d.Outcome != CallDownward || d.NewRing != 3 {
		t.Errorf("d=%+v viol=%v", d, viol)
	}
	// Caller ring 4, effRing raised to 5: still a downward call whose
	// new ring 3 ≤ iprRing 4 — legal, validated against ring 5.
	d, viol = DecideCall(v, 0, 4, 5, false)
	if viol != nil || d.Outcome != CallDownward || d.NewRing != 3 {
		t.Errorf("raised effRing downward: d=%+v viol=%v", d, viol)
	}
}

func TestDecideCallChecksExecuteFlagAndBounds(t *testing.T) {
	v := figure2SDW()
	v.Execute = false
	if _, viol := DecideCall(v, 0, 4, 4, false); viol == nil || viol.Kind != ViolationNoExecute {
		t.Errorf("execute off: %v", viol)
	}
	v = figure2SDW()
	if _, viol := DecideCall(v, 9999, 4, 4, false); viol == nil || viol.Kind != ViolationBound {
		t.Errorf("bound: %v", viol)
	}
	if _, viol := DecideCall(SDWView{}, 0, 4, 4, false); viol == nil || viol.Kind != ViolationMissingSegment {
		t.Errorf("missing: %v", viol)
	}
}

// ---------------------------------------------------------------------
// Figure 9: RETURN decisions.

func returnTarget() SDWView {
	// A user procedure segment executable in rings 4-5.
	return SDWView{
		Present: true, Read: true, Execute: true,
		Brackets: Brackets{R1: 4, R2: 5, R3: 5},
		Bound:    256,
	}
}

func TestDecideReturnUpward(t *testing.T) {
	v := returnTarget()
	d, viol := DecideReturn(v, 10, 1, 4)
	if viol != nil {
		t.Fatalf("upward return: %v", viol)
	}
	if d.Outcome != ReturnUpward || d.NewRing != 4 {
		t.Errorf("decision: %+v", d)
	}
}

func TestDecideReturnSameRing(t *testing.T) {
	v := returnTarget()
	d, viol := DecideReturn(v, 10, 4, 4)
	if viol != nil {
		t.Fatalf("same-ring return: %v", viol)
	}
	if d.Outcome != ReturnSameRing || d.NewRing != 4 {
		t.Errorf("decision: %+v", d)
	}
}

func TestDecideReturnDownwardTraps(t *testing.T) {
	v := returnTarget()
	d, viol := DecideReturn(v, 10, 5, 4)
	if viol != nil {
		t.Fatalf("downward return decision should not violate: %v", viol)
	}
	if d.Outcome != ReturnDownwardTrap {
		t.Errorf("decision: %+v", d)
	}
}

func TestDecideReturnValidatesInNewRing(t *testing.T) {
	v := returnTarget() // executable only in rings 4-5
	// Returning from ring 1 to ring 6: the target is not executable in
	// ring 6, so the return must be an access violation, not a quiet
	// transfer to an unexecutable segment.
	if _, viol := DecideReturn(v, 10, 1, 6); viol == nil || viol.Kind != ViolationExecuteBracket {
		t.Errorf("return into unexecutable ring: %v", viol)
	}
	noE := v
	noE.Execute = false
	if _, viol := DecideReturn(noE, 10, 1, 4); viol == nil || viol.Kind != ViolationNoExecute {
		t.Errorf("return into E=off segment: %v", viol)
	}
	if _, viol := DecideReturn(v, 9999, 1, 4); viol == nil || viol.Kind != ViolationBound {
		t.Errorf("return beyond bound: %v", viol)
	}
}

func TestRaisePRRings(t *testing.T) {
	prs := []Ring{0, 1, 4, 7}
	RaisePRRings(prs, 4)
	want := []Ring{4, 4, 4, 7}
	for i := range prs {
		if prs[i] != want[i] {
			t.Errorf("pr[%d] = %d, want %d", i, prs[i], want[i])
		}
	}
}

// ---------------------------------------------------------------------
// Property tests.

func randomView(rng *rand.Rand) SDWView {
	r1 := Ring(rng.Intn(NumRings))
	r2 := r1 + Ring(rng.Intn(int(NumRings-r1)))
	r3 := r2 + Ring(rng.Intn(int(NumRings-r2)))
	bound := uint32(rng.Intn(1024) + 1)
	return SDWView{
		Present: true,
		Read:    rng.Intn(2) == 0,
		Write:   rng.Intn(2) == 0,
		Execute: rng.Intn(2) == 0,
		Brackets: Brackets{
			R1: r1, R2: r2, R3: r3,
		},
		GateCount: uint32(rng.Intn(int(bound))),
		Bound:     bound,
	}
}

// Property (nested subset): read and write permission are downward
// closed in the ring number — if ring m may access, so may every ring
// n < m. (Execute is deliberately NOT downward closed: the paper relaxes
// the execute bracket's lower limit to catch accidental execution in a
// ring lower than intended.)
func TestQuickNestedSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := randomView(rng)
		for m := Ring(1); m < NumRings; m++ {
			for n := Ring(0); n < m; n++ {
				if v.Permits(AccessRead, m) && !v.Permits(AccessRead, n) {
					t.Fatalf("read not nested: %+v m=%d n=%d", v, m, n)
				}
				if v.Permits(AccessWrite, m) && !v.Permits(AccessWrite, n) {
					t.Fatalf("write not nested: %+v m=%d n=%d", v, m, n)
				}
			}
		}
	}
}

// Property: the write bracket is contained in the read bracket (a
// consequence of R1 ≤ R2): any ring that can write a segment with both
// flags on can also read it.
func TestQuickWriteImpliesReadBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		v := randomView(rng)
		v.Read, v.Write = true, true
		for r := Ring(0); r < NumRings; r++ {
			if v.Permits(AccessWrite, r) && !v.Permits(AccessRead, r) {
				t.Fatalf("write without read: %+v ring %d", v, r)
			}
		}
	}
}

// Property: effective ring computation is monotone — it never lowers the
// ring, whatever combination of PR and indirect contributions arrives.
func TestQuickEffectiveRingMonotone(t *testing.T) {
	f := func(curSeed, prSeed, indSeed, r1Seed uint8) bool {
		cur := Ring(curSeed % NumRings)
		pr := Ring(prSeed % NumRings)
		ind := Ring(indSeed % NumRings)
		r1 := Ring(r1Seed % NumRings)
		afterPR := EffectiveRingPR(cur, pr)
		afterInd := EffectiveRingIndirect(afterPR, ind, r1)
		return afterPR >= cur && afterInd >= afterPR &&
			afterInd >= ind && afterInd >= r1 && afterPR >= pr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DecideCall never hands back a NewRing above the caller's
// ring of execution without trapping — the hardware can lower or hold
// the ring, never raise it silently.
func TestQuickCallNeverRaisesRingSilently(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		v := randomView(rng)
		ipr := Ring(rng.Intn(NumRings))
		eff := ipr + Ring(rng.Intn(int(NumRings-ipr))) // eff ≥ ipr always holds in hardware
		wordno := uint32(rng.Intn(int(v.Bound)))
		same := rng.Intn(4) == 0
		d, viol := DecideCall(v, wordno, ipr, eff, same)
		if viol != nil {
			continue
		}
		if d.Outcome != CallUpwardTrap && d.NewRing > ipr {
			t.Fatalf("silent ring raise: %+v ipr=%d eff=%d d=%+v", v, ipr, eff, d)
		}
	}
}

// Property: DecideReturn never returns control downward without a trap.
func TestQuickReturnNeverLowersRingSilently(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		v := randomView(rng)
		ipr := Ring(rng.Intn(NumRings))
		eff := Ring(rng.Intn(NumRings))
		wordno := uint32(rng.Intn(int(v.Bound)))
		d, viol := DecideReturn(v, wordno, ipr, eff)
		if viol != nil {
			continue
		}
		if d.NewRing < ipr && d.Outcome != ReturnDownwardTrap {
			t.Fatalf("silent ring lower: ipr=%d eff=%d d=%+v", ipr, eff, d)
		}
	}
}

// Property: RaisePRRings establishes PRn.RING ≥ newRing and never lowers
// any PR ring.
func TestQuickRaisePRRings(t *testing.T) {
	f := func(seeds []uint8, newSeed uint8) bool {
		newRing := Ring(newSeed % NumRings)
		prs := make([]Ring, len(seeds))
		before := make([]Ring, len(seeds))
		for i, s := range seeds {
			prs[i] = Ring(s % NumRings)
			before[i] = prs[i]
		}
		RaisePRRings(prs, newRing)
		for i := range prs {
			if prs[i] < newRing || prs[i] < before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for a present SDW with valid brackets, CheckRead/CheckWrite/
// CheckFetch agree exactly with the Permits predicate (given an in-bound
// word number).
func TestQuickChecksAgreeWithPermits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		v := randomView(rng)
		wordno := uint32(rng.Intn(int(v.Bound)))
		r := Ring(rng.Intn(NumRings))
		if got, want := CheckRead(v, wordno, r) == nil, v.Permits(AccessRead, r); got != want {
			t.Fatalf("read disagree: %+v ring %d", v, r)
		}
		if got, want := CheckWrite(v, wordno, r) == nil, v.Permits(AccessWrite, r); got != want {
			t.Fatalf("write disagree: %+v ring %d", v, r)
		}
		if got, want := CheckFetch(v, wordno, r) == nil, v.Permits(AccessExecute, r); got != want {
			t.Fatalf("fetch disagree: %+v ring %d", v, r)
		}
	}
}

func TestViolationStrings(t *testing.T) {
	kinds := []ViolationKind{
		ViolationNone, ViolationMissingSegment, ViolationBound,
		ViolationNoRead, ViolationReadBracket, ViolationNoWrite,
		ViolationWriteBracket, ViolationNoExecute, ViolationExecuteBracket,
		ViolationNotAGate, ViolationGateExtension, ViolationRingAlarm,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad or duplicate string %q", k, s)
		}
		seen[s] = true
	}
	v := &Violation{Kind: ViolationNoWrite, Ring: 4}
	if v.Error() == "" {
		t.Error("empty violation error")
	}
	// The names are part of the service's JSON and wire answers: pin
	// every one exactly.
	want := []string{
		"no violation",
		"missing segment",
		"out of segment bounds",
		"read flag off",
		"outside read bracket",
		"write flag off",
		"outside write bracket",
		"execute flag off",
		"outside execute bracket",
		"transfer not directed at a gate location",
		"calling ring above gate extension",
		"effective ring above ring of execution on transfer",
	}
	if len(want) != ViolationKindCount {
		t.Fatalf("test pins %d names, ViolationKindCount is %d", len(want), ViolationKindCount)
	}
	for k := ViolationKind(0); int(k) < ViolationKindCount; k++ {
		if got := k.String(); got != want[k] {
			t.Errorf("ViolationKind(%d).String() = %q, want %q", int(k), got, want[k])
		}
	}
	for _, k := range []ViolationKind{-1, ViolationKind(ViolationKindCount), 99} {
		if got, want := k.String(), fmt.Sprintf("violation(%d)", int(k)); got != want {
			t.Errorf("ViolationKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []CallOutcome{CallSameRing, CallDownward, CallUpwardTrap, CallOutcome(9)} {
		if o.String() == "" {
			t.Errorf("empty string for %d", o)
		}
	}
	for _, o := range []ReturnOutcome{ReturnSameRing, ReturnUpward, ReturnDownwardTrap, ReturnOutcome(9)} {
		if o.String() == "" {
			t.Errorf("empty string for %d", o)
		}
	}
	for _, k := range []AccessKind{AccessRead, AccessWrite, AccessExecute, AccessKind(9)} {
		if k.String() == "" {
			t.Errorf("empty string for %d", k)
		}
	}
	if Ring(3).String() != "ring 3" {
		t.Error("ring string")
	}
}

// Property: DecideCall is consistent with the fetch predicate — when a
// CALL succeeds without trapping, the target segment is executable in
// the new ring of execution (the next instruction fetch cannot fault on
// the execute bracket).
func TestQuickCallConsistentWithFetch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		v := randomView(rng)
		ipr := Ring(rng.Intn(NumRings))
		eff := ipr + Ring(rng.Intn(int(NumRings-ipr)))
		wordno := uint32(rng.Intn(int(v.Bound)))
		same := rng.Intn(4) == 0
		d, viol := DecideCall(v, wordno, ipr, eff, same)
		if viol != nil || d.Outcome == CallUpwardTrap {
			continue
		}
		if f := CheckFetch(v, wordno, d.NewRing); f != nil {
			t.Fatalf("call succeeded into unfetchable ring: %+v ipr=%d eff=%d d=%+v viol=%v",
				v, ipr, eff, d, f)
		}
	}
}

// Property: DecideReturn never succeeds into a segment the new ring
// cannot fetch from.
func TestQuickReturnConsistentWithFetch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		v := randomView(rng)
		ipr := Ring(rng.Intn(NumRings))
		eff := Ring(rng.Intn(NumRings))
		wordno := uint32(rng.Intn(int(v.Bound)))
		d, viol := DecideReturn(v, wordno, ipr, eff)
		if viol != nil || d.Outcome == ReturnDownwardTrap {
			continue
		}
		if f := CheckFetch(v, wordno, d.NewRing); f != nil {
			t.Fatalf("return succeeded into unfetchable ring: %+v ipr=%d eff=%d d=%+v viol=%v",
				v, ipr, eff, d, f)
		}
	}
}
