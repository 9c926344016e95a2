package core

import "testing"

// This file verifies CallCheck and ReturnCheck against independent
// specification functions written directly from the paper's prose, by
// exhaustive enumeration of the whole (small) input space: every valid
// bracket triple, every flag combination, every caller/effective ring
// pair, gate and non-gate words, same- and cross-segment. Roughly half
// a million cases per decision procedure.

// specCall is an independent transcription of Figure 8's narrative.
func specCall(v SDWView, wordno uint32, ipr, eff Ring, sameSegment bool) (CallDecision, ViolationKind) {
	var none CallDecision
	// Address translation: presence and bound first.
	if !v.Present {
		return none, ViolationMissingSegment
	}
	if wordno >= v.Bound {
		return none, ViolationBound
	}
	// The target must be executable at all.
	if !v.Execute {
		return none, ViolationNoExecute
	}
	// "a CALL must be directed at a gate location even when the called
	// procedure will execute in the same ring ... The only exception
	// ... occurs if the operand is in the same segment as the
	// instruction."
	if !sameSegment && wordno >= v.GateCount {
		return none, ViolationNotAGate
	}
	// Validation is relative to the effective ring.
	switch {
	case eff >= v.R1 && eff <= v.R2:
		// Within the execute bracket: the call would execute in eff.
		// "what would appear to be a call within the same ring or to a
		// lower ring with respect to TPR.RING can in fact be an upward
		// call with respect to IPR.RING ... generate an access
		// violation".
		if eff > ipr {
			return none, ViolationRingAlarm
		}
		return CallDecision{Outcome: CallSameRing, NewRing: eff}, ViolationNone
	case eff > v.R2 && eff <= v.R3:
		// Gate extension: downward call to the top of the execute
		// bracket — unless that is still above the true ring.
		if v.R2 > ipr {
			return none, ViolationRingAlarm
		}
		return CallDecision{Outcome: CallDownward, NewRing: v.R2}, ViolationNone
	case eff < v.R1:
		// Below the execute bracket: an upward call; hardware traps.
		return CallDecision{Outcome: CallUpwardTrap, NewRing: v.R1}, ViolationNone
	default:
		// Above the gate extension.
		return none, ViolationGateExtension
	}
}

// specReturn is an independent transcription of Figure 9's narrative.
func specReturn(v SDWView, wordno uint32, ipr, eff Ring) (ReturnDecision, ViolationKind) {
	var none ReturnDecision
	if eff < ipr {
		return ReturnDecision{Outcome: ReturnDownwardTrap, NewRing: eff}, ViolationNone
	}
	if !v.Present {
		return none, ViolationMissingSegment
	}
	if wordno >= v.Bound {
		return none, ViolationBound
	}
	if !v.Execute {
		return none, ViolationNoExecute
	}
	if !(eff >= v.R1 && eff <= v.R2) {
		return none, ViolationExecuteBracket
	}
	if eff == ipr {
		return ReturnDecision{Outcome: ReturnSameRing, NewRing: eff}, ViolationNone
	}
	return ReturnDecision{Outcome: ReturnUpward, NewRing: eff}, ViolationNone
}

// enumerate walks every valid SDW view shape (brackets × flags × gate
// configurations over a 2-word segment).
func enumerate(f func(v SDWView)) {
	for r1 := Ring(0); r1 < NumRings; r1++ {
		for r2 := r1; r2 < NumRings; r2++ {
			for r3 := r2; r3 < NumRings; r3++ {
				for flags := 0; flags < 8; flags++ {
					for gate := uint32(0); gate <= 2; gate++ {
						f(SDWView{
							Present:   true,
							Read:      flags&1 != 0,
							Write:     flags&2 != 0,
							Execute:   flags&4 != 0,
							Brackets:  Brackets{R1: r1, R2: r2, R3: r3},
							GateCount: gate,
							Bound:     2,
						})
					}
				}
			}
		}
	}
}

func TestExhaustiveCallAgainstSpec(t *testing.T) {
	cases := 0
	enumerate(func(v SDWView) {
		for ipr := Ring(0); ipr < NumRings; ipr++ {
			// In hardware the effective ring never drops below the ring
			// of execution, but the decision procedure must behave
			// sanely for all inputs; enumerate everything.
			for eff := Ring(0); eff < NumRings; eff++ {
				for _, wordno := range []uint32{0, 1, 2} {
					for _, same := range []bool{false, true} {
						cases++
						got, gotK := CallCheck(v, wordno, ipr, eff, same)
						want, wantK := specCall(v, wordno, ipr, eff, same)
						if gotK != wantK {
							t.Fatalf("violation mismatch: v=%+v w=%d ipr=%d eff=%d same=%v\n got %v\nwant %v",
								v, wordno, ipr, eff, same, gotK, wantK)
						}
						if gotK == ViolationNone && got != want {
							t.Fatalf("decision mismatch: v=%+v w=%d ipr=%d eff=%d same=%v\n got %+v\nwant %+v",
								v, wordno, ipr, eff, same, got, want)
						}
					}
				}
			}
		}
	})
	if cases < 400000 {
		t.Fatalf("only %d cases enumerated", cases)
	}
}

func TestExhaustiveReturnAgainstSpec(t *testing.T) {
	cases := 0
	enumerate(func(v SDWView) {
		for ipr := Ring(0); ipr < NumRings; ipr++ {
			for eff := Ring(0); eff < NumRings; eff++ {
				for _, wordno := range []uint32{0, 2} {
					cases++
					got, gotK := ReturnCheck(v, wordno, ipr, eff)
					want, wantK := specReturn(v, wordno, ipr, eff)
					if gotK != wantK {
						t.Fatalf("violation mismatch: v=%+v w=%d ipr=%d eff=%d\n got %v\nwant %v",
							v, wordno, ipr, eff, gotK, wantK)
					}
					if gotK == ViolationNone && got != want {
						t.Fatalf("decision mismatch: v=%+v w=%d ipr=%d eff=%d\n got %+v\nwant %+v",
							v, wordno, ipr, eff, got, want)
					}
				}
			}
		}
	})
	if cases < 200000 {
		t.Fatalf("only %d cases enumerated", cases)
	}
}

// TestExhaustiveAbsentSegment covers the not-present arm for both
// procedures.
func TestExhaustiveAbsentSegment(t *testing.T) {
	v := SDWView{}
	if _, k := CallCheck(v, 0, 4, 4, false); k != ViolationMissingSegment {
		t.Errorf("call into absent segment: %v", k)
	}
	if _, k := ReturnCheck(v, 0, 1, 4); k != ViolationMissingSegment {
		t.Errorf("return into absent segment: %v", k)
	}
}
