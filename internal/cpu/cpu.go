// Package cpu simulates the processor described in the paper's Figures
// 3-9: a segmented-addressing machine whose every virtual memory
// reference is validated against the ring brackets in the segment
// descriptor word, and whose CALL and RETURN instructions perform
// downward calls and upward returns — gate checking, ring switching,
// stack base formation, PR ring raising — entirely "in hardware",
// without supervisor intervention.
//
// The division of labour with internal/core: core holds the pure
// validation and decision logic (what the paper's flowcharts decide);
// cpu holds the machine state and the instruction cycle that drives
// those decisions (when the flowcharts run and what happens on each
// exit arc).
package cpu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/seg"
	"repro/internal/trace"
	"repro/internal/trap"
	"repro/internal/word"
)

// Pointer is a ring-qualified two-part address: the format shared by
// the instruction pointer register (IPR), the pointer registers
// (PR0-PR7) and the internal temporary pointer register (TPR).
type Pointer struct {
	Ring   core.Ring
	Segno  uint32
	Wordno uint32
}

func (p Pointer) String() string {
	return fmt.Sprintf("(%o|%o) ring %d", p.Segno, p.Wordno, p.Ring)
}

// Indirect converts the pointer to an indirect word with the same ring,
// segment and word numbers (used by SPR).
func (p Pointer) Indirect() isa.Indirect {
	return isa.Indirect{Ring: p.Ring, Segno: p.Segno, Wordno: p.Wordno}
}

// Indicators are the condition flags set by loads, arithmetic and
// compares, and tested by the conditional transfer instructions.
type Indicators struct {
	Zero  bool
	Neg   bool
	Carry bool
}

// StackRule selects how CALL forms the stack segment number for a new
// ring of execution (Figure 8 and its footnote).
type StackRule int

const (
	// StackSegnoIsRing is the body-text rule: "the segment number of
	// the appropriate stack segment is the same as the new ring
	// number". Segments 0-7 are the stacks.
	StackSegnoIsRing StackRule = iota
	// StackDBRBase is the footnote rule: the new stack segment number
	// is DBR.Stack plus the new ring number, allowing flexible stack
	// segment assignment (preserving stack history after an error,
	// forked stacks).
	StackDBRBase
)

// Pointer register conventions. The paper fixes PR0 ("chosen
// arbitrarily") as the register CALL loads with the new stack base;
// software conventions in this codebase use PR6 as the stack frame
// pointer and PR1 as the argument list pointer ("PRa").
const (
	StackBasePR = 0
	StackPtrPR  = 6
	ArgListPR   = 1
)

// TrapAction is a trap handler's verdict.
type TrapAction int

const (
	// TrapHalt stops the processor; Run returns the trap as its error.
	TrapHalt TrapAction = iota
	// TrapResume continues execution at the current IPR, which the
	// handler has arranged (typically by RestoreSaved, possibly after
	// editing the saved state).
	TrapResume
)

// TrapHandler is the software the processor transfers to on a trap. In
// this simulator the ring-0 supervisor core is implemented as a Go
// TrapHandler rather than as simulated ring-0 assembly; the substitution
// is recorded in DESIGN.md. The handler runs conceptually in ring 0: it
// has unrestricted access to machine state, exactly as ring-0 code
// would.
type TrapHandler interface {
	HandleTrap(c *CPU, t *trap.Trap) TrapAction
}

// TrapHandlerFunc adapts a function to TrapHandler.
type TrapHandlerFunc func(c *CPU, t *trap.Trap) TrapAction

// HandleTrap calls f.
func (f TrapHandlerFunc) HandleTrap(c *CPU, t *trap.Trap) TrapAction { return f(c, t) }

// SavedState is the processor state captured when a trap occurs, in the
// order the paper implies: everything needed for "the state of the
// processor at the time of the trap to be restored later if
// appropriate, resuming the disrupted instruction". IPR points AT the
// disrupted instruction.
type SavedState struct {
	IPR  Pointer
	TPR  Pointer
	PR   [8]Pointer
	A, Q word.Word
	X    [8]uint32
	Ind  Indicators
	Trap *trap.Trap
}

// Options configures a CPU.
type Options struct {
	// Validate enables ring/flag access validation. Switching it off is
	// the T5 ablation: address translation still checks presence and
	// bounds (the simulator could not function otherwise), but all
	// bracket, flag and gate checks are skipped.
	Validate bool
	// StackRule selects the CALL stack segment numbering rule.
	StackRule StackRule
	// MaxIndirections bounds chained indirect words per effective
	// address calculation.
	MaxIndirections int
	// SDWCache enables the associative memory of DefaultSDWCacheSize
	// registers for segment descriptor words (see internal/mmu). Off by
	// default: every reference then reads the descriptor segment, and
	// no invalidation discipline is required of supervisor software.
	SDWCache bool
	// Costs is the cycle cost model; zero value means DefaultCosts.
	Costs Costs
}

// DefaultSDWCacheSize is the number of SDW associative registers when
// Options.SDWCache is on.
const DefaultSDWCacheSize = 32

// DefaultOptions returns the standard configuration: validation on,
// body-text stack rule, indirection chain limit 8.
func DefaultOptions() Options {
	return Options{
		Validate:        true,
		StackRule:       StackSegnoIsRing,
		MaxIndirections: 8,
		Costs:           DefaultCosts(),
	}
}

// CPU is the simulated processor plus its attached core memory.
type CPU struct {
	// MMU is the processor's memory management unit: the single
	// authoritative path from two-part address to core word. It owns the
	// DBR, the SDW associative memory and all access validation; the CPU
	// proper holds only registers and the instruction cycle.
	MMU *mmu.MMU

	IPR Pointer
	TPR Pointer
	PR  [8]Pointer
	A   word.Word
	Q   word.Word
	X   [8]uint32
	Ind Indicators

	// Cycles is the running simulated cycle count. Supervisor software
	// (Go trap handlers) add their own path costs via AddCycles so the
	// hardware/software comparison benches see both sides.
	Cycles uint64

	Opt Options

	Handler TrapHandler

	// tracer is the installed trace sink (mmu.Disabled when off); the
	// same sink is installed on the MMU so validation events and
	// instruction-cycle events interleave in one stream.
	tracer mmu.Sink

	// Services dispatches SVC instructions; nil means SVC raises an
	// unhandled Supervisor trap.
	Services ServiceTable

	// IO receives SIO instructions; nil means SIO is a validated no-op.
	IO IODevice

	Halted bool

	saved []SavedState

	// Memory-mode trap handling (ConfigureTrapVector): when set and no
	// Go Handler is attached, traps dump a frame into trapSaveSeg and
	// transfer to trapVector in ring 0.
	trapVector  *Pointer
	trapSaveSeg uint32

	// interrupts is the pending asynchronous-condition queue, delivered
	// between instructions (see interrupt.go).
	interrupts []Interrupt

	// steps counts executed instructions (for RunFor limits and traces).
	steps uint64
}

// ServiceTable dispatches supervisor services invoked by the SVC
// instruction (ring 0 only). It returns a TrapAction like a handler: the
// service has full machine access.
type ServiceTable interface {
	Service(c *CPU, n uint32) TrapAction
}

// IODevice receives SIO instructions. The control-block address has
// already been validated and translated; the device may read it via the
// CPU's memory.
type IODevice interface {
	StartIO(c *CPU, iocbSeg, iocbWord uint32) error
}

// New returns a CPU attached to storage m with the given options.
func New(m mem.Store, opt Options) *CPU {
	if opt.MaxIndirections <= 0 {
		opt.MaxIndirections = 8
	}
	if opt.Costs == (Costs{}) {
		opt.Costs = DefaultCosts()
	}
	size := 0
	if opt.SDWCache {
		size = DefaultSDWCacheSize
	}
	c := &CPU{Opt: opt, tracer: mmu.Disabled}
	c.MMU = mmu.New(m, mmu.Options{
		Validate:  opt.Validate,
		CacheSize: size,
		Costs:     mmu.Costs{Validate: opt.Costs.Validate, SDWMiss: opt.Costs.SDWMiss},
	})
	c.MMU.AttachCycles(&c.Cycles)
	return c
}

// Mem returns the core store beneath the MMU.
func (c *CPU) Mem() mem.Store { return c.MMU.Mem }

// DBR returns the descriptor base register.
func (c *CPU) DBR() seg.DBR { return c.MMU.DBR() }

// SetDBR loads the descriptor base register. The MMU flushes its SDW
// associative memory as part of the load — a different descriptor
// segment invalidates every cached translation.
func (c *CPU) SetDBR(d seg.DBR) { c.MMU.SetDBR(d) }

// SetTracer installs the trace sink on the processor and its MMU; nil
// disables tracing.
func (c *CPU) SetTracer(s mmu.Sink) {
	if s == nil {
		s = mmu.Disabled
	}
	c.tracer = s
	c.MMU.SetSink(s)
}

// Tracer returns the installed trace sink (mmu.Disabled when tracing is
// off, never nil for a CPU built by New).
func (c *CPU) Tracer() mmu.Sink { return c.tracer }

// tracing reports whether trace events should be constructed. Callers
// use it to skip detail-string formatting entirely when tracing is off,
// keeping the step path allocation-free.
func (c *CPU) tracing() bool { return c.tracer != nil && c.tracer.Enabled() }

// AddCycles charges simulated supervisor path length to the machine.
func (c *CPU) AddCycles(n uint64) { c.Cycles += n }

// Steps reports the number of instructions executed so far.
func (c *CPU) Steps() uint64 { return c.steps }

// SavedDepth reports the depth of the trap save stack.
func (c *CPU) SavedDepth() int { return len(c.saved) }

// PeekSaved returns the most recent saved state for inspection or
// editing by supervisor software, or nil if none.
func (c *CPU) PeekSaved() *SavedState {
	if len(c.saved) == 0 {
		return nil
	}
	return &c.saved[len(c.saved)-1]
}

// RestoreSaved pops the most recent saved state into the live registers
// — the special instruction the paper mentions for resuming a disrupted
// instruction (RETT executes this; Go supervisor code calls it
// directly).
func (c *CPU) RestoreSaved() error {
	if len(c.saved) == 0 {
		return fmt.Errorf("cpu: restore with empty save stack")
	}
	s := c.saved[len(c.saved)-1]
	c.saved = c.saved[:len(c.saved)-1]
	c.IPR = s.IPR
	c.TPR = s.TPR
	c.PR = s.PR
	c.A, c.Q = s.A, s.Q
	c.X = s.X
	c.Ind = s.Ind
	c.Cycles += c.Opt.Costs.Restore
	return nil
}

// DropSaved discards the most recent saved state (supervisor redirected
// execution rather than resuming).
func (c *CPU) DropSaved() error {
	if len(c.saved) == 0 {
		return fmt.Errorf("cpu: drop with empty save stack")
	}
	c.saved = c.saved[:len(c.saved)-1]
	return nil
}

// record emits a trace event if tracing is attached.
func (c *CPU) record(k trace.Kind, ring core.Ring, segno, wordno uint32, detail string) {
	if !c.tracing() {
		return
	}
	c.tracer.Record(trace.Event{Kind: k, Ring: ring, Segno: segno, Wordno: wordno, Detail: detail})
}

// Table returns the descriptor segment accessor for the current DBR.
func (c *CPU) Table() seg.Table { return c.MMU.Table() }

// fetchSDW retrieves the SDW for segno through the MMU's associative
// memory. The error return is a physical memory fault (simulator
// integrity problem), never an access issue — absent segments come back
// with Present false and the callers raise the architectural trap.
func (c *CPU) fetchSDW(segno uint32) (seg.SDW, error) { return c.MMU.FetchSDW(segno) }

// readVirtual reads (segno|wordno); the access must already be
// validated. Bounds were checked architecturally, so errors here are
// simulator integrity faults.
func (c *CPU) readVirtual(s seg.SDW, wordno uint32) (word.Word, error) {
	return c.MMU.Read(s, wordno)
}

// writeVirtual writes (segno|wordno); the access must already be
// validated.
func (c *CPU) writeVirtual(s seg.SDW, wordno uint32, w word.Word) error {
	return c.MMU.Write(s, wordno, w)
}

// StopReason reports why Run returned.
type StopReason int

const (
	// StopHalt: the HLT instruction executed.
	StopHalt StopReason = iota
	// StopTrap: an unhandled (or handler-halted) trap stopped the machine.
	StopTrap
	// StopLimit: the step limit was reached.
	StopLimit
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopTrap:
		return "trap"
	case StopLimit:
		return "step limit"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Run executes instructions until halt, an unrecovered trap, an
// internal simulator error, or limit steps (limit <= 0 means no limit).
// The returned error is non-nil for traps (a *trap.Trap) and simulator
// faults; a clean HLT returns (StopHalt, nil).
func (c *CPU) Run(limit int) (StopReason, error) {
	executed := 0
	for !c.Halted {
		if limit > 0 && executed >= limit {
			return StopLimit, nil
		}
		if err := c.Step(); err != nil {
			return StopTrap, err
		}
		executed++
	}
	return StopHalt, nil
}

// setIndicatorsFromA updates Zero and Neg from the accumulator.
func (c *CPU) setIndicatorsFromA() {
	c.Ind.Zero = c.A.IsZero()
	c.Ind.Neg = c.A.IsNegative()
}

// setIndicatorsFrom updates Zero and Neg from an arbitrary word.
func (c *CPU) setIndicatorsFrom(w word.Word) {
	c.Ind.Zero = w.IsZero()
	c.Ind.Neg = w.IsNegative()
}
