// Package sup implements the miniature layered supervisor of this
// reproduction: the ring-0 software the processor transfers to on a
// trap, plus the ring-0 services user rings reach through ordinary
// gated CALLs.
//
// The paper's supervisor occupies rings 0 and 1 of every process. Here
// the ring-0 core (trap dispatch, upward-call mediation, segment
// initiation, access-control setting) is implemented as Go code attached
// to the CPU's trap handler and SVC service table — the substitution
// DESIGN.md records — while the gate veneers user code actually CALLs
// are real simulated segments with real brackets and gate lists, so
// every protection decision on the way into and out of the supervisor
// is made by the simulated hardware, not by Go.
//
// # Upward calls and downward returns
//
// The hardware traps on an upward call (Figure 8). The supervisor
// mediates per the paper's discussion: it records a stacked return
// gate, builds a frame on the callee ring's stack holding the caller's
// return point, and redirects execution to the callee in its ring.
// The callee's eventual RETURN through that return point raises an
// access violation (the return point is not executable in the callee's
// ring — a downward return cannot be expressed through the effective
// ring, which never decreases), and the supervisor recognizes the
// violation against the top of the return-gate stack, verifies the
// restored environment, and completes the downward return.
package sup

import (
	"fmt"
	"strings"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/seg"
	"repro/internal/trap"
	"repro/internal/word"
)

// Cycle charges for supervisor software paths, on top of the hardware
// trap cost. These stand in for the instruction path lengths of the
// 645-era software the paper contrasts with; the T1/T4 experiments
// report both simulated cycles and host time.
const (
	CycUpwardCallMediation = 120
	CycDownwardReturn      = 100
	CycSegmentFault        = 150
	CycService             = 20
)

// returnGate is one entry of the per-process stacked return gates the
// paper calls for ("this gate must behave as though it were stored in a
// push-down stack").
type returnGate struct {
	caller     cpu.SavedState // full caller state at the upward CALL
	calleeRing core.Ring
	retSeg     uint32 // the caller return point the callee will aim at
	retWord    uint32
	frame      uint32 // callee-stack frame the supervisor allocated
}

// OnlineSegment is a segment known to the storage system but not
// necessarily present in the process's virtual memory: the supervisor
// initiates it on demand (segment fault) or via the initiate service,
// after checking its ACL.
type OnlineSegment struct {
	Name     string
	Contents []word.Word
	Size     int // ≥ len(Contents); 0 means len(Contents)
	Gates    uint32
	ACL      acl.List
}

// Supervisor is the ring-0 (and ring-1) software of one process.
type Supervisor struct {
	Img  *image.Image
	User string // the user this process acts for

	// Console collects SVC console output (the typewriter of the
	// paper's I/O example).
	Console strings.Builder
	// Audit collects supervisor audit records.
	Audit []string
	// ExitCode is the A register at the exit service.
	ExitCode int64
	// Exited reports a clean exit-service termination.
	Exited bool

	// OnViolation, if set, is consulted for access violations that are
	// not downward returns; return true to halt (default) or false to
	// have the supervisor skip the faulting instruction (used by the
	// debugging-ring example to continue after a caught addressing
	// error).
	OnViolation func(*trap.Trap) bool

	gates  []returnGate
	online map[uint32]*OnlineSegment // reserved segno -> segment
	links  *lazyLinks
}

var _ cpu.TrapHandler = (*Supervisor)(nil)
var _ cpu.ServiceTable = (*Supervisor)(nil)

// New returns a supervisor for the given user, not yet wired to any
// machine. Img may remain nil when the supervisor serves a process
// whose segments are managed elsewhere (internal/proc); only Reserve
// and Initiate require an image.
func New(user string) *Supervisor {
	return &Supervisor{User: user, online: map[uint32]*OnlineSegment{}}
}

// Attach wires a supervisor to an image for the given user and returns
// it. The CPU's trap handler and service table are replaced.
func Attach(img *image.Image, user string) *Supervisor {
	s := New(user)
	s.Img = img
	img.CPU.Handler = s
	img.CPU.Services = s
	return s
}

// auditf appends a formatted audit record.
func (s *Supervisor) auditf(format string, args ...interface{}) {
	s.Audit = append(s.Audit, fmt.Sprintf(format, args...))
}

// HandleTrap is the fixed supervisor location the processor transfers
// to on a trap.
func (s *Supervisor) HandleTrap(c *cpu.CPU, t *trap.Trap) cpu.TrapAction {
	switch t.Code {
	case trap.UpwardCall:
		return s.mediateUpwardCall(c, t)
	case trap.AccessViolation:
		if act, ok := s.tryDownwardReturn(c, t); ok {
			return act
		}
		return s.violation(c, t)
	case trap.MissingSegment:
		if act, ok := s.linkageFault(c, t); ok {
			return act
		}
		if act, ok := s.segmentFault(c, t); ok {
			return act
		}
		return s.violation(c, t)
	case trap.IOCompletion, trap.TimerInterrupt:
		// Asynchronous conditions: record and resume the interrupted
		// computation (richer policies — wakeups, scheduling — belong
		// to internal/proc).
		s.auditf("%v (device %d)", t.Code, t.Service)
		if err := c.RestoreSaved(); err != nil {
			return cpu.TrapHalt
		}
		return cpu.TrapResume
	default:
		s.auditf("fatal trap: %v", t)
		return cpu.TrapHalt
	}
}

// violation applies the default (or example-installed) policy for a
// protection violation.
func (s *Supervisor) violation(c *cpu.CPU, t *trap.Trap) cpu.TrapAction {
	s.auditf("access violation: %v", t)
	if s.OnViolation != nil && !s.OnViolation(t) {
		// Skip the faulting instruction and continue: restore the
		// saved state with the instruction counter advanced.
		saved := c.PeekSaved()
		if saved == nil {
			return cpu.TrapHalt
		}
		saved.IPR.Wordno = word.Add18(saved.IPR.Wordno, 1)
		if err := c.RestoreSaved(); err != nil {
			return cpu.TrapHalt
		}
		return cpu.TrapResume
	}
	return cpu.TrapHalt
}

// stackSegnoFor mirrors the hardware's stack segment numbering rule.
func (s *Supervisor) stackSegnoFor(c *cpu.CPU, r core.Ring) uint32 {
	if c.Opt.StackRule == cpu.StackDBRBase {
		return c.DBR().Stack + uint32(r)
	}
	return uint32(r)
}

// mediateUpwardCall performs the software side of an upward call.
func (s *Supervisor) mediateUpwardCall(c *cpu.CPU, t *trap.Trap) cpu.TrapAction {
	c.AddCycles(CycUpwardCallMediation)
	saved := c.PeekSaved()
	if saved == nil || saved.Trap != t {
		s.auditf("upward call with corrupt save stack")
		return cpu.TrapHalt
	}
	// Target and new ring: the bottom of the target's execute bracket.
	tsdw, err := c.Table().Fetch(t.OperandSeg)
	if err != nil || !tsdw.Present || !tsdw.Execute {
		s.auditf("upward call to bad segment %o", t.OperandSeg)
		return cpu.TrapHalt
	}
	newRing := tsdw.Brackets.R1

	// The caller's return point: by convention the caller executed
	// `stic pr6|0,+1` immediately before the CALL, so its frame word 0
	// holds the return indirect word.
	callerPR6 := saved.PR[cpu.StackPtrPR]
	retInd, err := s.readWordAt(c, callerPR6.Segno, callerPR6.Wordno)
	if err != nil {
		s.auditf("upward call: cannot read caller frame: %v", err)
		return cpu.TrapHalt
	}
	ret := isa.DecodeIndirect(retInd)

	// Build a frame on the callee ring's stack holding the return
	// point, so the callee's standard epilogue works unchanged.
	stackSegno := s.stackSegnoFor(c, newRing)
	stackSDW, err := c.Table().Fetch(stackSegno)
	if err != nil || !stackSDW.Present {
		s.auditf("upward call: no stack for ring %d", newRing)
		return cpu.TrapHalt
	}
	counterWord, err := s.readWordAt(c, stackSegno, 0)
	if err != nil {
		return cpu.TrapHalt
	}
	counter := isa.DecodeIndirect(counterWord)
	frame := counter.Wordno
	// Leave the first conventional frame free: gate veneers build their
	// frame at the fixed slot past the counter word, and the mediation
	// pseudo-frame must not collide with it.
	if frame < image.StackFrameStart+image.FrameSize {
		frame = image.StackFrameStart + image.FrameSize
	}
	const frameSize = 2
	counter.Wordno = frame + frameSize
	if err := s.writeWordAt(c, stackSegno, 0, counter.Encode()); err != nil {
		return cpu.TrapHalt
	}
	// Frame word 0: the caller's return point (ring field preserved —
	// it names the caller's ring, below the callee's, so any RETURN
	// through it will trap back to us).
	if err := s.writeWordAt(c, stackSegno, frame, retInd); err != nil {
		return cpu.TrapHalt
	}

	// Record the stacked return gate, remove the trap frame, and
	// redirect into the callee.
	s.gates = append(s.gates, returnGate{
		caller:     *saved,
		calleeRing: newRing,
		retSeg:     ret.Segno,
		retWord:    ret.Wordno,
		frame:      frame,
	})
	if err := c.DropSaved(); err != nil {
		return cpu.TrapHalt
	}
	for i := range c.PR {
		c.PR[i].Ring = core.MaxRing(c.PR[i].Ring, newRing)
	}
	c.PR[cpu.StackBasePR] = cpu.Pointer{Ring: newRing, Segno: stackSegno, Wordno: 0}
	c.PR[cpu.StackPtrPR] = cpu.Pointer{Ring: newRing, Segno: stackSegno, Wordno: frame}
	c.IPR = cpu.Pointer{Ring: newRing, Segno: t.OperandSeg, Wordno: t.OperandWord}
	s.auditf("upward call mediated: ring %d -> %d, target (%o|%o)",
		saved.IPR.Ring, newRing, t.OperandSeg, t.OperandWord)
	return cpu.TrapResume
}

// tryDownwardReturn recognizes the access violation produced when an
// upward-called procedure RETURNs to its (lower-ring) caller, and
// completes the downward return against the stacked return gate.
func (s *Supervisor) tryDownwardReturn(c *cpu.CPU, t *trap.Trap) (cpu.TrapAction, bool) {
	if len(s.gates) == 0 {
		return cpu.TrapHalt, false
	}
	g := s.gates[len(s.gates)-1]
	// The violation must be the callee's RETURN aimed exactly at the
	// recorded return point, from the callee's ring.
	if t.Ring != g.calleeRing || t.OperandSeg != g.retSeg || t.OperandWord != g.retWord {
		return cpu.TrapHalt, false
	}
	saved := c.PeekSaved()
	if saved == nil || saved.Trap != t {
		return cpu.TrapHalt, false
	}
	insWord, err := s.readWordAt(c, saved.IPR.Segno, saved.IPR.Wordno)
	if err != nil {
		return cpu.TrapHalt, false
	}
	if isa.DecodeInstruction(insWord).Op != isa.RET {
		return cpu.TrapHalt, false
	}

	c.AddCycles(CycDownwardReturn)
	// Pass the callee's accumulators through as return values.
	retA, retQ := c.A, c.Q

	// Pop the violation frame and the gate; release the callee frame.
	if err := c.DropSaved(); err != nil {
		return cpu.TrapHalt, false
	}
	s.gates = s.gates[:len(s.gates)-1]
	stackSegno := s.stackSegnoFor(c, g.calleeRing)
	released := isa.Indirect{Ring: g.calleeRing, Segno: stackSegno, Wordno: g.frame}
	_ = s.writeWordAt(c, stackSegno, 0, released.Encode())

	// Restore the caller's environment — this is the "intervening
	// software verifies the restored stack pointer register value"
	// step: the supervisor restores the very state it recorded, so the
	// callee had no opportunity to forge it.
	st := g.caller
	c.IPR = st.IPR
	c.IPR.Wordno = word.Add18(st.IPR.Wordno, 1) // resume after the CALL
	c.PR = st.PR
	c.X = st.X
	c.Ind = st.Ind
	c.A, c.Q = retA, retQ
	s.auditf("downward return completed: ring %d -> %d", g.calleeRing, st.IPR.Ring)
	return cpu.TrapResume, true
}

// readWordAt and writeWordAt are ring-0 accesses to arbitrary virtual
// addresses (the supervisor holds all capabilities).
func (s *Supervisor) readWordAt(c *cpu.CPU, segno, wordno uint32) (word.Word, error) {
	sdw, err := c.Table().Fetch(segno)
	if err != nil {
		return 0, err
	}
	if !sdw.Present || wordno >= sdw.Bound {
		return 0, fmt.Errorf("sup: read outside segment %o", segno)
	}
	return c.Mem().Read(seg.Translate(sdw, wordno))
}

func (s *Supervisor) writeWordAt(c *cpu.CPU, segno, wordno uint32, w word.Word) error {
	sdw, err := c.Table().Fetch(segno)
	if err != nil {
		return err
	}
	if !sdw.Present || wordno >= sdw.Bound {
		return fmt.Errorf("sup: write outside segment %o", segno)
	}
	return c.Mem().Write(seg.Translate(sdw, wordno), w)
}

// ---------------------------------------------------------------------
// Demand segment initiation.

// Reserve registers an on-line segment without making it present: the
// descriptor slot is allocated, the SDW left absent. A later reference
// raises a segment fault, and the supervisor initiates the segment if
// the process's user passes its ACL — the paper's "adding a segment to
// a virtual memory" flow.
func (s *Supervisor) Reserve(os *OnlineSegment) (uint32, error) {
	if s.Img == nil {
		return 0, fmt.Errorf("sup: no image attached; Reserve unavailable")
	}
	if err := os.ACL.Validate(); err != nil {
		return 0, err
	}
	size := os.Size
	if size == 0 {
		size = len(os.Contents)
	}
	if size == 0 {
		return 0, fmt.Errorf("sup: reserving empty segment %q", os.Name)
	}
	os.Size = size
	segno, err := s.Img.Add(image.SegmentDef{
		Name: os.Name, Size: size, Words: os.Contents,
		// Placed but absent: flags and brackets come from the ACL at
		// initiation time.
		Read: true, Brackets: core.Brackets{R1: 7, R2: 7, R3: 7},
	})
	if err != nil {
		return 0, err
	}
	// Mark absent until initiated.
	sdw, err := s.Img.SDW(segno)
	if err != nil {
		return 0, err
	}
	sdw.Present = false
	if err := s.Img.CPU.MMU.StoreSDW(segno, sdw); err != nil {
		return 0, err
	}
	s.online[segno] = os
	return segno, nil
}

// Initiate makes a reserved segment present with the SDW contents the
// user's ACL entry dictates.
func (s *Supervisor) Initiate(segno uint32) error {
	os, ok := s.online[segno]
	if !ok {
		return fmt.Errorf("sup: segment %o not in on-line storage", segno)
	}
	entry, ok := os.ACL.Resolve(s.User)
	if !ok {
		return fmt.Errorf("sup: user %q denied by ACL of %q", s.User, os.Name)
	}
	sdw, err := s.Img.SDW(segno)
	if err != nil {
		return err
	}
	sdw.Present = true
	sdw.Read = entry.Read
	sdw.Write = entry.Write
	sdw.Execute = entry.Execute
	sdw.Brackets = entry.Brackets
	sdw.Gate = os.Gates
	if err := s.Img.CPU.MMU.StoreSDW(segno, sdw); err != nil {
		return err
	}
	s.auditf("initiated %q (segno %o) for %q: %v", os.Name, segno, s.User, sdw)
	return nil
}

// segmentFault handles a missing-segment trap by initiating the segment
// if it is reserved and the ACL permits, then resuming the disrupted
// instruction.
func (s *Supervisor) segmentFault(c *cpu.CPU, t *trap.Trap) (cpu.TrapAction, bool) {
	segno := t.OperandSeg
	if _, ok := s.online[segno]; !ok {
		return cpu.TrapHalt, false
	}
	c.AddCycles(CycSegmentFault)
	if err := s.Initiate(segno); err != nil {
		s.auditf("segment fault denied: %v", err)
		return cpu.TrapHalt, true
	}
	if err := c.RestoreSaved(); err != nil {
		return cpu.TrapHalt, true
	}
	return cpu.TrapResume, true
}
