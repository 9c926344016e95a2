// Package mmu implements the memory management unit of the simulated
// processor: the single authoritative path every memory reference takes
// from two-part address to core word.
//
// The paper's central claim is that access validation is "integrated
// with address translation" and performed "on every reference". This
// package is that integration point, extracted so that every agent in
// the system — the hardware-ring CPU, the software-ring baseline, the
// multi-process scheduler — goes through the same translate-and-check
// layer. It owns:
//
//   - DBR-relative SDW retrieval from the descriptor segment;
//   - the direct-mapped SDW associative memory, with its invalidation
//     discipline (see below);
//   - bracket validation (read, write, fetch, transfer) and the
//     CALL/RETURN decisions, on top of the pure predicates in
//     internal/core, including the T5 validation-ablation switch;
//   - virtual-to-physical translation and the core access itself;
//   - cycle accounting for descriptor reads and validations;
//   - a pluggable, allocation-free Sink for trace events.
//
// # Invalidation discipline
//
// The paper expects a changed SDW "to be immediately effective". The
// associative memory therefore obeys three rules:
//
//  1. SetDBR flushes every associative register: a new descriptor
//     segment invalidates all cached translations (the processor does
//     this itself on LDBR).
//  2. Supervisor software that edits a descriptor in place must store
//     through StoreSDW, which writes through to core and invalidates
//     the cached copy.
//  3. In a multi-processor configuration, MMUs sharing core join a
//     Group; StoreSDW then also posts a shootdown to every other member
//     (see group.go), which each processor applies before its next SDW
//     fetch. The fetch fast path stays mutex-free: one atomic
//     generation load per reference, the lock taken only when a
//     shootdown is actually pending.
//
// With the cache disabled (the default), every fetch reads the
// descriptor segment and no discipline is required of supervisor
// software.
package mmu

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/seg"
	"repro/internal/trace"
	"repro/internal/word"
)

// Costs is the cycle cost model for the reference path. The fields
// mirror the corresponding entries of the CPU cost model; validation is
// free by default because the comparisons happen on SDW fields the
// translation logic has already fetched.
type Costs struct {
	// Validate is charged per access validation.
	Validate uint64
	// SDWMiss is charged per descriptor-segment read: on every SDW
	// fetch when the associative memory is off, and on misses only when
	// it is on.
	SDWMiss uint64
}

// Options configures an MMU.
type Options struct {
	// Validate enables ring/flag access validation. Switching it off is
	// the T5 ablation: presence and bounds are still checked (the
	// simulator could not function otherwise), but all bracket, flag and
	// gate checks are skipped.
	Validate bool
	// CacheSize is the number of SDW associative registers; it must be
	// a power of two. Zero disables the associative memory entirely.
	CacheSize int
	// Costs is the cycle cost model for the reference path.
	Costs Costs
	// Sink receives trace events; nil means tracing disabled.
	Sink Sink
}

// Check reports whether the options are well-formed. The only
// constraint is the associative memory geometry: CacheSize must be zero
// (disabled) or a power of two, because the direct-mapped index is a
// mask. The error names the offending value so callers wiring sizes
// from configuration can report it.
func (o Options) Check() error {
	if o.CacheSize < 0 {
		return fmt.Errorf("mmu: SDW cache size %d is negative; want 0 (disabled) or a power of two", o.CacheSize)
	}
	if o.CacheSize&(o.CacheSize-1) != 0 {
		return fmt.Errorf("mmu: SDW cache size %d is not a power of two (0 disables the associative memory)", o.CacheSize)
	}
	return nil
}

// CacheStats reports associative memory performance and coherence
// traffic.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	// Invalidations counts single-entry invalidations (StoreSDW on this
	// MMU plus applied remote shootdowns).
	Invalidations uint64
	// Flushes counts whole-cache flushes (DBR loads).
	Flushes uint64
	// Shootdowns counts remote invalidation requests applied.
	Shootdowns uint64
}

// HitRate returns the fraction of SDW fetches served by the associative
// memory (0 when nothing was fetched).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheEntry struct {
	valid bool
	segno uint32
	sdw   seg.SDW
}

// MMU is one processor's memory management unit. It is owned by a
// single goroutine (its processor); the only cross-goroutine traffic is
// the shootdown queue, which remote members post under its own lock.
type MMU struct {
	// Mem is the physical storage beneath the unit: flat core, the
	// race-safe shared store (mem.Atomic), or a demand-paged space
	// (internal/paging) — anything satisfying mem.Store slots beneath
	// the translation layer unchanged.
	Mem mem.Store

	dbr    seg.DBR
	opt    Options
	sink   Sink
	cycles *uint64

	cache []cacheEntry
	mask  uint32
	stats CacheStats

	// Shootdown plumbing (see group.go). shootGen is bumped by remote
	// members after posting to pending; the owner compares it against
	// seenGen on each cached fetch — an atomic load, no lock — and
	// drains pending only on mismatch.
	group    *Group
	shootGen atomic.Uint64
	seenGen  uint64
	pending  pendingShootdowns

	ownCycles uint64 // charge target when no external counter is attached
}

// New returns an MMU over storage m. It panics if Options.Check
// rejects opt (a construction-time programming error, like a
// non-positive memory size); callers wiring options from run-time
// configuration should call Options.Check themselves and report the
// error.
func New(m mem.Store, opt Options) *MMU {
	if err := opt.Check(); err != nil {
		panic(err.Error())
	}
	u := &MMU{Mem: m, opt: opt, sink: opt.Sink}
	if u.sink == nil {
		u.sink = Disabled
	}
	if opt.CacheSize > 0 {
		u.cache = make([]cacheEntry, opt.CacheSize)
		u.mask = uint32(opt.CacheSize - 1)
	}
	u.cycles = &u.ownCycles
	return u
}

// AttachCycles redirects cycle charges into the given counter (the
// processor's running total). The MMU must be quiescent.
func (u *MMU) AttachCycles(c *uint64) {
	if c == nil {
		c = &u.ownCycles
	}
	u.cycles = c
}

// Cycles returns the privately accumulated cycle count (zero when the
// unit charges an attached external counter).
func (u *MMU) Cycles() uint64 { return u.ownCycles }

// SetSink installs the trace sink; nil disables tracing.
func (u *MMU) SetSink(s Sink) {
	if s == nil {
		s = Disabled
	}
	u.sink = s
}

// Sink returns the installed trace sink (never nil).
func (u *MMU) Sink() Sink { return u.sink }

// Validating reports whether ring/flag validation is enabled (false
// under the T5 ablation).
func (u *MMU) Validating() bool { return u.opt.Validate }

// CacheSize returns the number of associative registers (0 = disabled).
func (u *MMU) CacheSize() int { return len(u.cache) }

// DBR returns the current descriptor base register.
func (u *MMU) DBR() seg.DBR { return u.dbr }

// SetDBR loads the descriptor base register and flushes the associative
// memory: a different descriptor segment invalidates every cached SDW.
func (u *MMU) SetDBR(d seg.DBR) {
	u.dbr = d
	u.Flush()
}

// Table returns the descriptor segment accessor for the current DBR.
func (u *MMU) Table() seg.Table { return seg.Table{Mem: u.Mem, DBR: u.dbr} }

// Flush invalidates every associative register.
func (u *MMU) Flush() {
	if len(u.cache) == 0 {
		return
	}
	for i := range u.cache {
		u.cache[i].valid = false
	}
	u.stats.Flushes++
}

// CacheStats returns the hit/miss/invalidation counters (zero when the
// associative memory is disabled).
func (u *MMU) CacheStats() CacheStats { return u.stats }

// FetchSDW retrieves the SDW for segno through the associative memory
// and the descriptor segment in core. The error return is a physical
// memory fault (simulator integrity problem), never an access issue —
// absent segments come back with Present false and the caller raises
// the architectural trap.
//
//ring:hotpath
func (u *MMU) FetchSDW(segno uint32) (seg.SDW, error) {
	if len(u.cache) == 0 {
		*u.cycles += u.opt.Costs.SDWMiss // every reference reads the descriptor segment
		return u.Table().Fetch(segno)
	}
	if g := u.shootGen.Load(); g != u.seenGen {
		u.applyShootdowns(g)
	}
	e := &u.cache[segno&u.mask]
	if e.valid && e.segno == segno {
		u.stats.Hits++
		return e.sdw, nil
	}
	u.stats.Misses++
	*u.cycles += u.opt.Costs.SDWMiss
	sdw, err := u.Table().Fetch(segno)
	if err != nil {
		return seg.SDW{}, err
	}
	*e = cacheEntry{valid: true, segno: segno, sdw: sdw}
	return sdw, nil
}

// StoreSDW writes an SDW through the current descriptor segment and
// keeps every associative memory coherent: the local cached copy is
// invalidated directly, and when the MMU belongs to a Group the edit is
// shot down to every other member. All run-time descriptor edits by
// supervisor software go through here.
func (u *MMU) StoreSDW(segno uint32, sdw seg.SDW) error {
	if err := u.Table().Store(segno, sdw); err != nil {
		return err
	}
	u.invalidate(segno)
	if u.group != nil {
		u.group.shootdown(u, segno)
	}
	return nil
}

// invalidate drops the cached copy of segno, if any.
func (u *MMU) invalidate(segno uint32) {
	if len(u.cache) == 0 {
		return
	}
	e := &u.cache[segno&u.mask]
	if e.valid && e.segno == segno {
		e.valid = false
		u.stats.Invalidations++
	}
}

// ---- Access validation (Figures 4, 5, 6 and 7) ----
//
// Each check charges the validation cost and honours the ablation
// switch: with validation off, presence and bounds are still enforced
// (via core.CheckBound) but brackets, flags and gates are not.

// CheckRead validates a read at (segno|wordno) with respect to the
// effective ring.
func (u *MMU) CheckRead(v core.SDWView, segno, wordno uint32, ring core.Ring) *core.Violation {
	*u.cycles += u.opt.Costs.Validate
	if !u.opt.Validate {
		return core.CheckBound(v, wordno, ring)
	}
	viol := core.CheckRead(v, wordno, ring)
	if u.sink.Enabled() {
		u.traceValidate(traceRead, ring, segno, wordno, viol)
	}
	return viol
}

// CheckWrite validates a write at (segno|wordno) with respect to the
// effective ring.
func (u *MMU) CheckWrite(v core.SDWView, segno, wordno uint32, ring core.Ring) *core.Violation {
	*u.cycles += u.opt.Costs.Validate
	if !u.opt.Validate {
		return core.CheckBound(v, wordno, ring)
	}
	viol := core.CheckWrite(v, wordno, ring)
	if u.sink.Enabled() {
		u.traceValidate(traceWrite, ring, segno, wordno, viol)
	}
	return viol
}

// CheckFetch validates the instruction fetch (Figure 4) against the
// ring of execution.
func (u *MMU) CheckFetch(v core.SDWView, wordno uint32, ring core.Ring) *core.Violation {
	*u.cycles += u.opt.Costs.Validate
	if !u.opt.Validate {
		return core.CheckBound(v, wordno, ring)
	}
	return core.CheckFetch(v, wordno, ring)
}

// CheckTransfer performs the advance check of Figure 7 for a transfer
// to (segno|wordno): execRing is the ring of execution, effRing the
// effective ring of the target address.
func (u *MMU) CheckTransfer(v core.SDWView, segno, wordno uint32, execRing, effRing core.Ring) *core.Violation {
	*u.cycles += u.opt.Costs.Validate
	if !u.opt.Validate {
		return core.CheckBound(v, wordno, execRing)
	}
	viol := core.CheckTransfer(v, wordno, execRing, effRing)
	if u.sink.Enabled() {
		u.traceValidate(traceTransfer, effRing, segno, wordno, viol)
	}
	return viol
}

// DecideCall evaluates the CALL decision of Figure 8, honouring the
// ablation switch: with validation off, a violation degrades to a
// bounds-checked same-ring transfer, exactly as if the ring hardware
// were absent.
func (u *MMU) DecideCall(v core.SDWView, wordno uint32, execRing, effRing core.Ring, sameSegment bool) (core.CallDecision, *core.Violation) {
	decision, viol := core.DecideCall(v, wordno, execRing, effRing, sameSegment)
	if viol == nil || u.opt.Validate {
		return decision, viol
	}
	if bviol := core.CheckBound(v, wordno, execRing); bviol != nil {
		return core.CallDecision{}, bviol
	}
	return core.CallDecision{Outcome: core.CallSameRing, NewRing: execRing}, nil
}

// DecideReturn evaluates the RETURN decision of Figure 9 under the same
// ablation rule as DecideCall.
func (u *MMU) DecideReturn(v core.SDWView, wordno uint32, execRing, effRing core.Ring) (core.ReturnDecision, *core.Violation) {
	decision, viol := core.DecideReturn(v, wordno, execRing, effRing)
	if viol == nil || u.opt.Validate {
		return decision, viol
	}
	if bviol := core.CheckBound(v, wordno, execRing); bviol != nil {
		return core.ReturnDecision{}, bviol
	}
	return core.ReturnDecision{Outcome: core.ReturnSameRing, NewRing: effRing}, nil
}

// Trace detail strings are precomputed so that recording a validation
// event never concatenates (and therefore never allocates): the sink
// contract is "cheap when enabled", so a counting sink keeps the
// reference path allocation-free.
const (
	traceRead = iota
	traceWrite
	traceTransfer
)

var traceOK [3]string
var traceViol [3][core.ViolationKindCount]string

func init() {
	for i, what := range [3]string{"read", "write", "transfer"} {
		traceOK[i] = what + " ok"
		for k := range traceViol[i] {
			traceViol[i][k] = what + " violation: " + core.ViolationKind(k).String()
		}
	}
}

// traceValidate records one validation outcome using the precomputed
// detail tables; what is one of traceRead/Write/Transfer.
func (u *MMU) traceValidate(what int, ring core.Ring, segno, wordno uint32, viol *core.Violation) {
	detail := traceOK[what]
	if viol != nil && int(viol.Kind) < len(traceViol[what]) {
		detail = traceViol[what][viol.Kind]
	}
	u.sink.Record(trace.Event{Kind: trace.KindValidate, Ring: ring, Segno: segno, Wordno: wordno, Detail: detail})
}

// ---- Translation and core access ----

// Read fetches the word at wordno of the segment described by s. The
// access must already be validated: bounds were checked
// architecturally, so errors here are simulator integrity faults.
func (u *MMU) Read(s seg.SDW, wordno uint32) (word.Word, error) {
	return u.Mem.Read(seg.Translate(s, wordno))
}

// Write stores w at wordno of the segment described by s. The access
// must already be validated.
func (u *MMU) Write(s seg.SDW, wordno uint32, w word.Word) error {
	return u.Mem.Write(seg.Translate(s, wordno), w)
}
