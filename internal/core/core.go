// Package core implements the paper's primary contribution: the ring
// protection logic of Schroeder and Saltzer's "A Hardware Architecture
// for Implementing Protection Rings" (SOSP 1971 / CACM 1972).
//
// Everything here is pure: the package has no machine state and no
// dependencies beyond the standard library. It defines rings, the
// per-segment access brackets carried in segment descriptor words, the
// effective-ring computation of Figure 5, the access validation
// predicates of Figures 4, 6 and 7, and the CALL/RETURN ring-transition
// decision procedures of Figures 8 and 9, each stated once.
//
// A check returns the bare ViolationKind of the first test that fails
// (ViolationNone when the reference is allowed), so the check made on
// every reference allocates nothing. The decision service and the
// client replica call the checks directly; the simulator's MMU
// (internal/mmu) calls them from the instruction cycle and, when one
// fails, builds the trap payload, a Violation naming the kind and the
// ring it is reported against.
//
// # Rings and brackets
//
// A process has NumRings concentric rings of protection, numbered 0
// (most privileged) through NumRings-1 (least privileged). The access
// capabilities of ring m are a subset of those of ring n whenever m > n —
// the "nested subset property" on which every hardware shortcut in the
// paper rests.
//
// Each segment's descriptor word carries three 3-bit ring numbers
// R1 ≤ R2 ≤ R3 and three flags R, W, E. These define, for the process:
//
//	write bracket:   rings 0  .. R1   (if W set)
//	read bracket:    rings 0  .. R2   (if R set)
//	execute bracket: rings R1 .. R2   (if E set)
//	gate extension:  rings R2+1 .. R3
//
// The top of the read bracket deliberately coincides with the top of the
// execute bracket (both R2), and the bottom of the execute bracket
// deliberately coincides with the top of the write bracket (both R1);
// the paper argues these double uses remove an unwanted degree of
// freedom rather than any useful capability.
package core

import "fmt"

// NumRings is the number of protection rings per process. The paper:
// "In Multics, eight was chosen as the appropriate number of rings."
const NumRings = 8

// Ring is a ring number, 0 (most privileged) .. NumRings-1 (least).
type Ring uint8

// Valid reports whether r names an existing ring.
func (r Ring) Valid() bool { return r < NumRings }

func (r Ring) String() string { return fmt.Sprintf("ring %d", uint8(r)) }

// MaxRing returns the higher-numbered (less privileged) of a and b.
// The effective-ring calculation of Figure 5 is built from this.
func MaxRing(a, b Ring) Ring {
	if a > b {
		return a
	}
	return b
}

// Brackets is the triple of ring numbers in a segment descriptor word.
type Brackets struct {
	R1 Ring // top of write bracket; bottom of execute bracket
	R2 Ring // top of execute bracket; top of read bracket
	R3 Ring // top of gate extension
}

// Validate enforces the well-formedness rule the paper assigns to
// supervisor code constructing SDWs: R1 ≤ R2 ≤ R3, all valid rings.
func (b Brackets) Validate() error {
	if !b.R1.Valid() || !b.R2.Valid() || !b.R3.Valid() {
		return fmt.Errorf("core: bracket ring out of range: %d,%d,%d", b.R1, b.R2, b.R3)
	}
	if !(b.R1 <= b.R2 && b.R2 <= b.R3) {
		return fmt.Errorf("core: brackets violate R1 ≤ R2 ≤ R3: %d,%d,%d", b.R1, b.R2, b.R3)
	}
	return nil
}

// InWriteBracket reports whether ring r lies in the write bracket [0,R1].
func (b Brackets) InWriteBracket(r Ring) bool { return r <= b.R1 }

// InReadBracket reports whether ring r lies in the read bracket [0,R2].
func (b Brackets) InReadBracket(r Ring) bool { return r <= b.R2 }

// InExecuteBracket reports whether ring r lies in the execute bracket
// [R1,R2].
func (b Brackets) InExecuteBracket(r Ring) bool { return b.R1 <= r && r <= b.R2 }

// InGateExtension reports whether ring r lies in the gate extension
// (R2,R3].
func (b Brackets) InGateExtension(r Ring) bool { return b.R2 < r && r <= b.R3 }

// SDWView is the access-control content of a segment descriptor word:
// everything the validation logic needs to know about a segment. The
// memory-format encoding lives in internal/seg; core sees only this
// decoded view.
type SDWView struct {
	Present bool // segment exists in the virtual memory (directed fault otherwise)
	Read    bool // SDW.R
	Write   bool // SDW.W
	Execute bool // SDW.E
	Brackets
	GateCount uint32 // SDW.GATE: gate locations are words 0 .. GateCount-1
	Bound     uint32 // segment length in words; word numbers ≥ Bound fault
}

// ViolationKind enumerates the access-violation conditions the hardware
// detects. Each corresponds to a trap exit in Figures 4-9.
type ViolationKind int

const (
	// ViolationNone is the zero value; no violation.
	ViolationNone ViolationKind = iota
	// ViolationMissingSegment: the SDW is not present (directed fault).
	ViolationMissingSegment
	// ViolationBound: word number at or beyond the segment bound.
	ViolationBound
	// ViolationNoRead: read attempted with SDW.R off.
	ViolationNoRead
	// ViolationReadBracket: read attempted from above the read bracket.
	ViolationReadBracket
	// ViolationNoWrite: write attempted with SDW.W off.
	ViolationNoWrite
	// ViolationWriteBracket: write attempted from above the write bracket.
	ViolationWriteBracket
	// ViolationNoExecute: instruction fetch or transfer with SDW.E off.
	ViolationNoExecute
	// ViolationExecuteBracket: execution attempted outside [R1,R2].
	ViolationExecuteBracket
	// ViolationNotAGate: CALL from the gate extension not directed at a
	// gate location, or CALL from within the execute bracket of another
	// segment not directed at a gate location (the paper's error-
	// detection choice).
	ViolationNotAGate
	// ViolationGateExtension: CALL from above the top of the gate
	// extension (R3).
	ViolationGateExtension
	// ViolationRingAlarm: a transfer or CALL whose effective ring
	// (TPR.RING) exceeds the ring of execution in a way that would
	// amount to an unintended upward transfer; the paper: "the decision
	// is made to generate an access violation when it occurs".
	ViolationRingAlarm
)

var violationNames = [ViolationKindCount]string{
	ViolationNone:           "no violation",
	ViolationMissingSegment: "missing segment",
	ViolationBound:          "out of segment bounds",
	ViolationNoRead:         "read flag off",
	ViolationReadBracket:    "outside read bracket",
	ViolationNoWrite:        "write flag off",
	ViolationWriteBracket:   "outside write bracket",
	ViolationNoExecute:      "execute flag off",
	ViolationExecuteBracket: "outside execute bracket",
	ViolationNotAGate:       "transfer not directed at a gate location",
	ViolationGateExtension:  "calling ring above gate extension",
	ViolationRingAlarm:      "effective ring above ring of execution on transfer",
}

func (k ViolationKind) String() string {
	// The unsigned compare also rejects negative kinds.
	if uint(k) < uint(len(violationNames)) {
		return violationNames[k]
	}
	//ring:allow unknown-kind fallback: every architectural kind is interned above
	return fmt.Sprintf("violation(%d)", int(k))
}

// ViolationKindCount is the number of distinct ViolationKind values
// (ViolationNone through ViolationRingAlarm). Callers keeping per-kind
// counters or precomputed string tables size them with this.
const ViolationKindCount = int(ViolationRingAlarm) + 1

// Violation is the trap payload of a failed validation: the kind a
// check returned and the ring the reference is reported against. The
// checks return kinds only; the MMU (internal/mmu) chooses the ring
// when it builds the trap.
type Violation struct {
	Kind ViolationKind
	Ring Ring
}

func (v *Violation) Error() string {
	return fmt.Sprintf("access violation: %s (validated in %s)", v.Kind, v.Ring)
}

// BoundCheck validates presence and the word number against the
// segment bound: the address-translation test that every reference of
// any kind makes, and a step of each of Figures 4–9. A missing
// segment, or a word number at or beyond the bound, is a violation.
func BoundCheck(v SDWView, wordno uint32) ViolationKind {
	if !v.Present {
		return ViolationMissingSegment
	}
	if wordno >= v.Bound {
		return ViolationBound
	}
	return ViolationNone
}

// FetchCheck is the instruction-retrieval validation of Figure 4: the
// segment must be executable and the ring of execution must lie within
// the execute bracket, the E flag being tested first. The ring here is
// IPR.RING, the current ring of execution — instruction fetch is never
// validated against an effective ring, because the instruction's own
// location was determined by a previously validated transfer.
func FetchCheck(v SDWView, wordno uint32, ring Ring) ViolationKind {
	if k := BoundCheck(v, wordno); k != ViolationNone {
		return k
	}
	if !v.Execute {
		return ViolationNoExecute
	}
	if !v.InExecuteBracket(ring) {
		return ViolationExecuteBracket
	}
	return ViolationNone
}

// ReadCheck is the operand-read validation of Figure 6, also applied
// to each indirect-word retrieval during effective address formation
// (Figure 5). effRing is TPR.RING, the effective ring at the time of
// the reference.
func ReadCheck(v SDWView, wordno uint32, effRing Ring) ViolationKind {
	if k := BoundCheck(v, wordno); k != ViolationNone {
		return k
	}
	if !v.Read {
		return ViolationNoRead
	}
	if !v.InReadBracket(effRing) {
		return ViolationReadBracket
	}
	return ViolationNone
}

// WriteCheck is the operand-write validation of Figure 6, made with
// respect to the effective ring effRing.
func WriteCheck(v SDWView, wordno uint32, effRing Ring) ViolationKind {
	if k := BoundCheck(v, wordno); k != ViolationNone {
		return k
	}
	if !v.Write {
		return ViolationNoWrite
	}
	if !v.InWriteBracket(effRing) {
		return ViolationWriteBracket
	}
	return ViolationNone
}

// EffectiveRingPR updates the effective ring when the instruction
// specifies its operand address relative to a pointer register (Figure
// 5): TPR.RING := max(TPR.RING, PRn.RING).
func EffectiveRingPR(cur, prRing Ring) Ring { return MaxRing(cur, prRing) }

// EffectiveRingIndirect updates the effective ring when an indirect word
// is retrieved during effective address formation (Figure 5):
// TPR.RING := max(TPR.RING, IND.RING, SDW.R1 of the segment containing
// the indirect word). Including R1 — the top of the write bracket —
// accounts for the highest-numbered ring from which a procedure of the
// same process could have altered the indirect word, so the eventual
// operand reference is validated with respect to every ring that could
// have influenced the address.
func EffectiveRingIndirect(cur, indRing, containerR1 Ring) Ring {
	return MaxRing(MaxRing(cur, indRing), containerR1)
}

// TransferCheck is the advance check of Figure 7 for transfer
// instructions other than CALL and RETURN. A transfer does not
// reference its operand, so no validation is strictly required; the
// hardware checks anyway so the violation is caught while the offending
// transfer instruction can still be identified.
//
// Transfers are constrained from changing the ring of execution: the
// check is made with the current ring iprRing, and an effective ring
// above the current ring is itself a violation, the ring alarm (a
// higher-numbered ring influenced the target address of a transfer that
// will execute with the current ring's privilege).
func TransferCheck(v SDWView, wordno uint32, iprRing, effRing Ring) ViolationKind {
	if effRing > iprRing {
		return ViolationRingAlarm
	}
	if k := BoundCheck(v, wordno); k != ViolationNone {
		return k
	}
	if !v.Execute {
		return ViolationNoExecute
	}
	if !v.InExecuteBracket(iprRing) {
		return ViolationExecuteBracket
	}
	return ViolationNone
}

// CallOutcome classifies what a CALL instruction does once validated.
type CallOutcome int

const (
	// CallSameRing: the target executes in the caller's ring; no ring
	// switch occurs.
	CallSameRing CallOutcome = iota
	// CallDownward: the ring of execution switches down to the top of
	// the target's execute bracket (R2). Performed entirely in hardware.
	CallDownward
	// CallUpwardTrap: the target's execute bracket lies above the
	// caller's ring. Hardware does not automate this case; it traps for
	// software mediation.
	CallUpwardTrap
)

func (o CallOutcome) String() string {
	switch o {
	case CallSameRing:
		return "same-ring call"
	case CallDownward:
		return "downward call"
	case CallUpwardTrap:
		return "upward call (trap)"
	default:
		//ring:allow unknown-outcome fallback: every architectural outcome is interned above
		return fmt.Sprintf("CallOutcome(%d)", int(o))
	}
}

// CallDecision is the result of validating a CALL instruction.
type CallDecision struct {
	Outcome CallOutcome
	NewRing Ring // ring of execution after the call (meaningful for SameRing/Downward)
}

// CallCheck performs the access validation of the CALL instruction
// (Figure 8).
//
//   - v, wordno: the target segment's SDW view and target word number.
//   - iprRing: the current ring of execution (IPR.RING).
//   - effRing: the effective ring of the CALL operand address (TPR.RING).
//   - sameSegment: the target lies in the segment containing the CALL
//     instruction itself; the gate list is then ignored, permitting calls
//     to internal procedures.
//
// The validation is made relative to the effective ring. Because
// effRing ≥ iprRing always (TPR.RING only ever rises during effective
// address formation), a call that appears same-ring or downward with
// respect to effRing can be upward with respect to iprRing; the paper
// deems this an error and the hardware generates an access violation
// (ViolationRingAlarm) rather than quietly calling with reduced
// privilege.
func CallCheck(v SDWView, wordno uint32, iprRing, effRing Ring, sameSegment bool) (CallDecision, ViolationKind) {
	var none CallDecision
	if k := BoundCheck(v, wordno); k != ViolationNone {
		return none, k
	}
	if !v.Execute {
		return none, ViolationNoExecute
	}

	// Gate check: every CALL must be directed at a gate location, even
	// within the same ring — the paper's error-detection choice — except
	// when the target is in the same segment as the CALL instruction.
	if !sameSegment && wordno >= v.GateCount {
		return none, ViolationNotAGate
	}

	switch {
	case v.InExecuteBracket(effRing):
		// Call within the execute bracket: target executes in effRing.
		if effRing > iprRing {
			// Would raise the ring of execution via PR or indirection —
			// an upward call in disguise; access violation.
			return none, ViolationRingAlarm
		}
		return CallDecision{Outcome: CallSameRing, NewRing: effRing}, ViolationNone

	case v.InGateExtension(effRing):
		// Downward call through a gate: ring switches to the top of the
		// execute bracket.
		if v.R2 > iprRing {
			// The "top of execute bracket" is still above the true ring
			// of execution; treat as the same disguised-upward error.
			return none, ViolationRingAlarm
		}
		return CallDecision{Outcome: CallDownward, NewRing: v.R2}, ViolationNone

	case effRing < v.R1:
		// Upward call: execute bracket bottom above the caller. Hardware
		// traps for software mediation. The eventual ring of execution,
		// set by software, is the bottom of the execute bracket.
		return CallDecision{Outcome: CallUpwardTrap, NewRing: v.R1}, ViolationNone

	default:
		// effRing > R3: above the gate extension; the ring holds no
		// transfer-to-gate capability for this segment.
		return none, ViolationGateExtension
	}
}

// ReturnOutcome classifies what a RETURN instruction does once validated.
type ReturnOutcome int

const (
	// ReturnSameRing: return within the current ring.
	ReturnSameRing ReturnOutcome = iota
	// ReturnUpward: return to a higher-numbered ring; performed in
	// hardware, raising every PRn.RING to at least the new ring.
	ReturnUpward
	// ReturnDownwardTrap: return to a lower-numbered ring; hardware does
	// not automate this case (it would need a stacked return gate) and
	// traps for software mediation.
	ReturnDownwardTrap
)

func (o ReturnOutcome) String() string {
	switch o {
	case ReturnSameRing:
		return "same-ring return"
	case ReturnUpward:
		return "upward return"
	case ReturnDownwardTrap:
		return "downward return (trap)"
	default:
		//ring:allow unknown-outcome fallback: every architectural outcome is interned above
		return fmt.Sprintf("ReturnOutcome(%d)", int(o))
	}
}

// ReturnDecision is the result of validating a RETURN instruction.
type ReturnDecision struct {
	Outcome ReturnOutcome
	NewRing Ring
}

// ReturnCheck performs the access validation of the RETURN instruction
// (Figure 9). The ring returned to is the effective ring of the RETURN
// operand address; because the caller's ring number was woven into the
// stack pointer and return-point indirect words by the hardware, effRing
// can never be below the caller's ring, which is what makes the upward
// return safe without a return gate.
//
// The access validation proper is the same as for other transfer
// instructions, but made in the NEW ring: the instruction executed
// immediately after an upward ring switch must come from a segment
// executable in the new, higher-numbered ring.
func ReturnCheck(v SDWView, wordno uint32, iprRing, effRing Ring) (ReturnDecision, ViolationKind) {
	var none ReturnDecision
	if effRing < iprRing {
		// Downward return: software mediation required.
		return ReturnDecision{Outcome: ReturnDownwardTrap, NewRing: effRing}, ViolationNone
	}
	if k := BoundCheck(v, wordno); k != ViolationNone {
		return none, k
	}
	if !v.Execute {
		return none, ViolationNoExecute
	}
	if !v.InExecuteBracket(effRing) {
		return none, ViolationExecuteBracket
	}
	if effRing == iprRing {
		return ReturnDecision{Outcome: ReturnSameRing, NewRing: effRing}, ViolationNone
	}
	return ReturnDecision{Outcome: ReturnUpward, NewRing: effRing}, ViolationNone
}

// RaisePRRings implements the PR adjustment of Figure 9 for an upward
// return: every pointer register's ring field is replaced with the
// larger of its current value and the new ring of execution. Together
// with the fact that PRs can only be loaded by EAP-type instructions,
// this guarantees PRn.RING ≥ IPR.RING at all times.
func RaisePRRings(prRings []Ring, newRing Ring) {
	for i := range prRings {
		prRings[i] = MaxRing(prRings[i], newRing)
	}
}

// AccessKind names a kind of reference for the convenience of tables,
// traces and the experiment harness.
type AccessKind int

const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExecute
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExecute:
		return "execute"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Permits reports whether the view permits the given kind of access from
// ring r, ignoring bounds (the pure bracket/flag predicate). This is the
// function whose nested-subset property the property tests verify.
func (v SDWView) Permits(k AccessKind, r Ring) bool {
	if !v.Present {
		return false
	}
	switch k {
	case AccessRead:
		return v.Read && v.InReadBracket(r)
	case AccessWrite:
		return v.Write && v.InWriteBracket(r)
	case AccessExecute:
		return v.Execute && v.InExecuteBracket(r)
	default:
		return false
	}
}
