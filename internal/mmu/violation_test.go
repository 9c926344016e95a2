package mmu_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// TestViolationRing pins the ring each check reports a violation
// against: the ring passed in for read, write and fetch; the ring of
// execution for a transfer, except the effective ring for a ring alarm;
// the effective ring for CALL and RETURN; and, with validation off, the
// ring of execution for the bound faults of transfer, CALL and RETURN.
// Every transfer, CALL and RETURN row runs with the two rings distinct,
// so a check reporting the wrong one fails.
func TestViolationRing(t *testing.T) {
	data := core.SDWView{Present: true, Read: true, Write: true,
		Brackets: core.Brackets{R1: 4, R2: 5, R3: 5}, Bound: 16}
	proc := core.SDWView{Present: true, Read: true, Execute: true,
		Brackets: core.Brackets{R1: 3, R2: 3, R3: 5}, GateCount: 2, Bound: 16}
	library := core.SDWView{Present: true, Read: true, Execute: true,
		Brackets: core.Brackets{R1: 0, R2: 7, R3: 7}, Bound: 16}
	user := core.SDWView{Present: true, Read: true, Execute: true,
		Brackets: core.Brackets{R1: 4, R2: 5, R3: 5}, Bound: 16}

	call := func(v core.SDWView, wordno uint32, exec, eff core.Ring) func(*mmu.MMU) *core.Violation {
		return func(u *mmu.MMU) *core.Violation {
			_, viol := u.DecideCall(v, wordno, exec, eff, false)
			return viol
		}
	}
	ret := func(v core.SDWView, wordno uint32, exec, eff core.Ring) func(*mmu.MMU) *core.Violation {
		return func(u *mmu.MMU) *core.Violation {
			_, viol := u.DecideReturn(v, wordno, exec, eff)
			return viol
		}
	}
	cases := []struct {
		name     string
		validate bool
		check    func(*mmu.MMU) *core.Violation
		kind     core.ViolationKind
		ring     core.Ring
	}{
		{"read above the read bracket", true,
			func(u *mmu.MMU) *core.Violation { return u.CheckRead(data, 1, 0, 6) },
			core.ViolationReadBracket, 6},
		{"write above the write bracket", true,
			func(u *mmu.MMU) *core.Violation { return u.CheckWrite(data, 1, 0, 5) },
			core.ViolationWriteBracket, 5},
		{"fetch outside the execute bracket", true,
			func(u *mmu.MMU) *core.Violation { return u.CheckFetch(proc, 0, 4) },
			core.ViolationExecuteBracket, 4},
		{"transfer outside the execute bracket", true,
			func(u *mmu.MMU) *core.Violation { return u.CheckTransfer(proc, 1, 0, 4, 2) },
			core.ViolationExecuteBracket, 4},
		{"transfer ring alarm", true,
			func(u *mmu.MMU) *core.Violation { return u.CheckTransfer(library, 1, 0, 3, 5) },
			core.ViolationRingAlarm, 5},
		{"call beyond the bound", true, call(proc, 99, 2, 4), core.ViolationBound, 4},
		{"call to a non-gate word", true, call(proc, 2, 3, 4), core.ViolationNotAGate, 4},
		{"call ring alarm", true, call(proc, 0, 2, 4), core.ViolationRingAlarm, 4},
		{"return outside the execute bracket", true, ret(user, 0, 1, 6), core.ViolationExecuteBracket, 6},
		{"return beyond the bound", true, ret(user, 99, 1, 4), core.ViolationBound, 4},

		{"ablated read beyond the bound", false,
			func(u *mmu.MMU) *core.Violation { return u.CheckRead(data, 1, 99, 6) },
			core.ViolationBound, 6},
		{"ablated write beyond the bound", false,
			func(u *mmu.MMU) *core.Violation { return u.CheckWrite(data, 1, 99, 5) },
			core.ViolationBound, 5},
		{"ablated fetch beyond the bound", false,
			func(u *mmu.MMU) *core.Violation { return u.CheckFetch(proc, 99, 4) },
			core.ViolationBound, 4},
		{"ablated transfer beyond the bound", false,
			func(u *mmu.MMU) *core.Violation { return u.CheckTransfer(library, 1, 99, 3, 5) },
			core.ViolationBound, 3},
		{"ablated call beyond the bound", false, call(proc, 99, 2, 4), core.ViolationBound, 2},
		{"ablated return beyond the bound", false, ret(user, 99, 1, 4), core.ViolationBound, 1},
	}
	for _, c := range cases {
		u := mmu.New(mem.New(64), mmu.Options{Validate: c.validate})
		viol := c.check(u)
		if viol == nil {
			t.Errorf("%s: no violation, want %v in ring %d", c.name, c.kind, c.ring)
			continue
		}
		if viol.Kind != c.kind || viol.Ring != c.ring {
			t.Errorf("%s: %v in ring %d, want %v in ring %d", c.name, viol.Kind, viol.Ring, c.kind, c.ring)
		}
	}
}
