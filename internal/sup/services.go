package sup

import (
	"fmt"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/word"
)

// Supervisor service numbers (the SVC instruction's offset field).
// User rings never execute SVC directly — it is privileged — they CALL
// the corresponding gates of the "sysgates" segment, whose ring-0
// veneers execute it on their behalf. The calling ring is recovered
// from PR6, the caller's stack pointer, whose ring field the hardware
// guarantees is at least the caller's ring.
const (
	// SvcExit terminates the process cleanly; A is the exit code.
	SvcExit = 1
	// SvcPutChar appends the low 8 bits of A to the console.
	SvcPutChar = 2
	// SvcPutNum prints A as a signed decimal and a newline.
	SvcPutNum = 3
	// SvcGetCycles loads the cycle counter into A.
	SvcGetCycles = 4
	// SvcAudit appends an audit record carrying A.
	SvcAudit = 5
	// SvcSetBrackets changes the SDW of segment X0 to the flags and
	// brackets packed in A, subject to the sole-occupant rule for the
	// calling ring. A := 0 on success, -1 on denial.
	SvcSetBrackets = 6
	// SvcInitiate initiates reserved segment X0 for the process's user
	// per its ACL. A := 0 on success, -1 on denial.
	SvcInitiate = 7
	// SvcGetRing loads the calling ring into A.
	SvcGetRing = 8
)

// PackBrackets encodes flags and brackets for SvcSetBrackets:
// bits 0-2 R1, 3-5 R2, 6-8 R3, 9 read, 10 write, 11 execute.
func PackBrackets(read, write, execute bool, b core.Brackets) word.Word {
	w := word.Word(0).
		Deposit(0, 3, uint64(b.R1)).
		Deposit(3, 3, uint64(b.R2)).
		Deposit(6, 3, uint64(b.R3)).
		WithBit(9, read).
		WithBit(10, write).
		WithBit(11, execute)
	return w
}

// UnpackBrackets decodes a PackBrackets word.
func UnpackBrackets(w word.Word) (read, write, execute bool, b core.Brackets) {
	return w.Bit(9), w.Bit(10), w.Bit(11), core.Brackets{
		R1: core.Ring(w.Field(0, 3)),
		R2: core.Ring(w.Field(3, 3)),
		R3: core.Ring(w.Field(6, 3)),
	}
}

// callingRing recovers the ring the supervisor gate was called from.
func callingRing(c *cpu.CPU) core.Ring {
	return c.PR[cpu.StackPtrPR].Ring
}

// Service dispatches an SVC executed by ring-0 veneer code.
func (s *Supervisor) Service(c *cpu.CPU, n uint32) cpu.TrapAction {
	c.AddCycles(CycService)
	switch n {
	case SvcExit:
		s.Exited = true
		s.ExitCode = c.A.Int64()
		s.auditf("exit(%d) from ring %d", s.ExitCode, callingRing(c))
		return cpu.TrapHalt
	case SvcPutChar:
		s.Console.WriteByte(byte(c.A.Uint64() & 0xFF))
	case SvcPutNum:
		fmt.Fprintf(&s.Console, "%d\n", c.A.Int64())
	case SvcGetCycles:
		c.A = word.FromUint64(c.Cycles)
	case SvcAudit:
		s.auditf("audit from ring %d: %d", callingRing(c), c.A.Int64())
	case SvcSetBrackets:
		s.serviceSetBrackets(c)
	case SvcInitiate:
		if err := s.Initiate(c.X[0]); err != nil {
			s.auditf("initiate denied: %v", err)
			c.A = word.FromInt(-1)
		} else {
			c.A = 0
		}
	case SvcGetRing:
		c.A = word.FromUint64(uint64(callingRing(c)))
	default:
		s.auditf("unknown service %d", n)
		return cpu.TrapHalt
	}
	return cpu.TrapResume
}

// serviceSetBrackets implements the access-changing service with the
// sole-occupant check.
func (s *Supervisor) serviceSetBrackets(c *cpu.CPU) {
	segno := c.X[0]
	read, write, execute, br := UnpackBrackets(c.A)
	caller := callingRing(c)
	if err := acl.CheckSetter(caller, br); err != nil {
		s.auditf("set-brackets denied: %v", err)
		c.A = word.FromInt(-1)
		return
	}
	sdw, err := c.Table().Fetch(segno)
	if err != nil || !sdw.Present {
		s.auditf("set-brackets: no segment %o", segno)
		c.A = word.FromInt(-1)
		return
	}
	sdw.Read, sdw.Write, sdw.Execute = read, write, execute
	sdw.Brackets = br
	if err := c.MMU.StoreSDW(segno, sdw); err != nil {
		s.auditf("set-brackets: %v", err)
		c.A = word.FromInt(-1)
		return
	}
	s.auditf("set-brackets: segment %o now %v (by ring %d)", segno, sdw, caller)
	c.A = 0
}

// GateSource is the assembly source of the "sysgates" segment: the
// ring-0 gates through which rings 2-5 reach the supervisor services.
// Its execute bracket is [0,0] with a gate extension to ring 5 —
// exactly the paper's arrangement in which "procedures executing in
// rings 6 and 7 are not given access to supervisor gates". Each veneer
// follows the standard frame protocol so a gated supervisor call is
// object-code-identical to any other call.
const GateSource = `
        .seg    sysgates
        .bracket 0,0,5
        .gate   exit
        .gate   putchar
        .gate   putnum
        .gate   getcycles
        .gate   audit
        .gate   setbrackets
        .gate   initiate
        .gate   getring

exit:   svc     1               ; never returns

putchar: eap5   pr0|1
        spr6    pr5|0
        svc     2
        eap6    *pr5|0
        return  *pr6|0

putnum: eap5    pr0|1
        spr6    pr5|0
        svc     3
        eap6    *pr5|0
        return  *pr6|0

getcycles: eap5 pr0|1
        spr6    pr5|0
        svc     4
        eap6    *pr5|0
        return  *pr6|0

audit:  eap5    pr0|1
        spr6    pr5|0
        svc     5
        eap6    *pr5|0
        return  *pr6|0

setbrackets: eap5 pr0|1
        spr6    pr5|0
        svc     6
        eap6    *pr5|0
        return  *pr6|0

initiate: eap5  pr0|1
        spr6    pr5|0
        svc     7
        eap6    *pr5|0
        return  *pr6|0

getring: eap5   pr0|1
        spr6    pr5|0
        svc     8
        eap6    *pr5|0
        return  *pr6|0
`
