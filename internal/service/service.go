package service

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Op names a protection query kind.
type Op string

const (
	// OpAccess validates a read, write or instruction-fetch reference.
	OpAccess Op = "access"
	// OpCall evaluates the CALL decision of Figure 8: gate list, bracket
	// placement, and the resulting ring switch.
	OpCall Op = "call"
	// OpReturn evaluates the RETURN decision of Figure 9.
	OpReturn Op = "return"
	// OpEffRing computes the effective ring of an address chain per
	// Figure 5: the running max over pointer-register and indirect-word
	// contributions.
	OpEffRing Op = "effring"
)

// ChainStep is one contribution to effective-ring formation.
type ChainStep struct {
	// PR marks a pointer-register contribution (TPR.RING :=
	// max(TPR.RING, PRn.RING)); otherwise the step is an indirect-word
	// retrieval from the segment Segno, contributing both the indirect
	// word's ring field and the container's R1.
	PR    bool   `json:"pr,omitempty"`
	Ring  Ring   `json:"ring"`
	Segno uint32 `json:"segno,omitempty"`
}

// Ring aliases core.Ring for the wire types.
type Ring = core.Ring

// Query is one protection question.
type Query struct {
	Op Op
	// Ring is the ring of execution (IPR.RING) for access/call/return,
	// the starting effective ring for effring.
	Ring Ring
	// Segment names the target segment; when empty, Segno is used
	// directly (numbers at or beyond the descriptor bound decide as
	// missing segments, exactly as the hardware would).
	Segment string
	Segno   uint32
	// Wordno is the target word number.
	Wordno uint32
	// Kind selects the access kind for OpAccess.
	Kind core.AccessKind
	// EffRing is the effective ring of the operand address (TPR.RING)
	// for call/return; nil means equal to Ring.
	EffRing *Ring
	// SameSegment marks a call whose target lies in the segment
	// containing the CALL itself (the gate list is then ignored).
	SameSegment bool
	// Chain is the address chain for OpEffRing.
	Chain []ChainStep
}

// Decision is the service's answer to one Query.
type Decision struct {
	// Allowed reports that the reference (or transfer) is permitted.
	Allowed bool `json:"allowed"`
	// Violation is the architectural violation kind when not allowed
	// (empty otherwise).
	Violation string `json:"violation,omitempty"`
	// ViolationKind is the machine-readable violation code.
	ViolationKind core.ViolationKind `json:"violation_kind,omitempty"`
	// Outcome reports the call/return classification ("same-ring call",
	// "downward call", ...) for OpCall/OpReturn.
	Outcome string `json:"outcome,omitempty"`
	// NewRing is the resulting ring: the ring of execution after a
	// call/return, or the final effective ring for OpEffRing.
	NewRing Ring `json:"new_ring,omitempty"`
	// Trapped reports an outcome the hardware does not automate (upward
	// call, downward return): allowed, but mediated by software.
	Trapped bool `json:"trapped,omitempty"`
	// Err reports a malformed query (unknown op, unknown segment name).
	Err string `json:"err,omitempty"`
	// VersionLo and VersionHi report the mutation epoch of the
	// descriptor-store shard the decision consulted. Decision workers
	// read RCU snapshots, so both fields carry the (even) publication
	// epoch of the pinned snapshot — a degenerate interval meaning a
	// clean snapshot of that shard at that version (see the package
	// comment).
	VersionLo uint64 `json:"version_lo"`
	VersionHi uint64 `json:"version_hi"`
	// Shard is the shard whose epoch VersionLo/VersionHi refer to.
	// It is -1 when no single shard was consulted: a malformed query
	// (no versions reported) or an effring chain touching segments in
	// several shards or in none — the interval then reports the sum of
	// the consulted shards' pinned snapshot epochs (the store-wide
	// Version analogue; 0 for a chain of pointer-register steps only).
	Shard int `json:"shard"`
	// Worker is the index of the processor the submitting caller
	// borrowed to evaluate the decision.
	Worker int `json:"worker"`
}

// Config sizes a Service.
type Config struct {
	// Workers is the number of processors: the most batches decided at
	// once, each on a decider reading the store's RCU descriptor
	// snapshots. Default 4.
	Workers int
	// QueueDepth bounds the callers waiting for a processor; one more
	// is rejected with ErrQueueFull (backpressure). Default 64.
	QueueDepth int
	// BatchLimit caps the number of queries per submitted batch;
	// default 1024.
	BatchLimit int
}

// Service errors.
var (
	// ErrQueueFull is returned by Submit when QueueDepth callers already
	// wait for a processor: the caller should shed or retry (HTTP maps
	// it to 429).
	ErrQueueFull = errors.New("service: decision queue full")
	// ErrClosed is returned by Submit after Close (HTTP maps it to 503).
	ErrClosed = errors.New("service: closed")
	// ErrBatchTooLarge is returned when one batch exceeds BatchLimit.
	ErrBatchTooLarge = errors.New("service: batch exceeds limit")
)

// Decider decides one batch of queries on the calling goroutine from
// per-shard descriptor tables, calling the internal/core predicates on
// the views the tables hold. A service caller's decider pins each
// consulted shard's published snapshot on first use; a client
// replica's decider reads the tables the replica checked or fetched
// for the batch. Both run the same procedure, on a decider and a table
// array on the caller's stack that live for one batch. A Decider is
// not safe for concurrent use.
type Decider struct {
	// store supplies the snapshots pin loads; nil when the caller
	// supplies, before Decide, the table of every shard the batch
	// consults (Consults).
	store     *Store
	names     map[string]uint32
	shardMask uint32
	shardBits uint32 // log2(shards): segno >> shardBits indexes a shard's table
	// tabs[i] is the table shard i decides from in this batch; nil
	// when not yet pinned.
	tabs []*Table
	// pins, lookups and validates count table pins, descriptor lookups
	// and read/write validations (the "validate" event of /metrics);
	// SubmitInto adds them to its processor's counters.
	pins, lookups, validates uint64
}

// NewDecider returns a decider for one batch over tabs, which the
// caller fills with the table of every shard the batch consults before
// calling Decide: len(tabs) is the shard count, a power of two, and
// names resolves segment names. The next batch takes a fresh decider
// over fresh tables.
func NewDecider(names map[string]uint32, tabs []*Table) Decider {
	return Decider{
		names:     names,
		shardMask: uint32(len(tabs) - 1),
		shardBits: uint32(bits.TrailingZeros32(uint32(len(tabs)))),
		tabs:      tabs,
	}
}

// Decide answers queries into dst, which must hold len(queries)
// decisions, from the tables the caller supplied or, for a store's
// decider, the snapshots it pins. It leaves the tables in place: a
// decider serves one batch.
//
//ring:hotpath
func (dc *Decider) Decide(queries []Query, dst []Decision) {
	for i := range queries {
		dst[i] = Decision{}
		dc.eval(&queries[i], &dst[i])
	}
}

// Consults returns the set of shards (a bit per shard index) deciding q
// may read: the target segment's shard, or the shards of an effring
// chain's indirect steps. A name the decider cannot resolve consults
// none.
//
//ring:hotpath
func (dc *Decider) Consults(q *Query) uint64 {
	if q.Op == OpEffRing {
		return chainShards(q.Chain, dc.shardMask)
	}
	segno := q.Segno
	if q.Segment != "" {
		n, ok := dc.names[q.Segment]
		if !ok {
			return 0
		}
		segno = n
	}
	return 1 << (segno & dc.shardMask)
}

// chainShards returns the shards an effring chain's indirect steps
// read.
//
//ring:hotpath
func chainShards(chain []ChainStep, shardMask uint32) uint64 {
	var mask uint64 // MaxShards ≤ 64
	for i := range chain {
		if !chain[i].PR {
			mask |= 1 << (chain[i].Segno & shardMask)
		}
	}
	return mask
}

// processor is one simulated processor: the counters of the batches
// decided on it. A caller borrows it from the free list for one batch,
// decides the batch on a decider of its own (rcu.go), and takes mu only
// to add the batch to the counters, which Snapshot reads under mu.
type processor struct {
	index int

	mu     sync.Mutex
	counts counters
}

// Service is the concurrent protection-decision engine: a set of
// processors over one Store that callers borrow to decide their
// batches, with a bounded number of callers waiting for one.
type Service struct {
	store *Store
	cfg   Config
	procs []*processor
	free  chan *processor // idle processors; capacity Workers, so a return never blocks

	waiting  atomic.Int64  // callers waiting for a processor (queue_len)
	rejected atomic.Uint64 // callers shed with ErrQueueFull

	mu      sync.RWMutex   // orders admission against Close
	closed  bool           //ring:guarded mu
	callers sync.WaitGroup // admitted callers, waiting or deciding

	// hold, when non-nil (tests), parks each caller after it borrows a
	// processor until the channel is closed — a deterministic way to
	// occupy every processor and exercise backpressure. A caller about
	// to park first sends on holdAck (if set), so a test can wait for
	// the park itself.
	hold    chan struct{}
	holdAck chan struct{}
}

// New builds a Service over st with Config.Workers processors. It
// starts no goroutine: callers decide on their own, each batch on a
// decider pinning the store's RCU descriptor snapshots.
func New(st *Store, cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = 1024
	}
	s := &Service{store: st, cfg: cfg, free: make(chan *processor, cfg.Workers)}
	for i := 0; i < cfg.Workers; i++ {
		p := &processor{index: i}
		s.procs = append(s.procs, p)
		s.free <- p
	}
	return s
}

// Store returns the descriptor store the service decides against.
func (s *Service) Store() *Store { return s.store }

// Workers returns the number of processors.
func (s *Service) Workers() int { return len(s.procs) }

// QueueDepth returns the bound on callers waiting for a processor.
func (s *Service) QueueDepth() int { return s.cfg.QueueDepth }

// QueueLen returns the number of callers waiting for a processor.
func (s *Service) QueueLen() int { return int(s.waiting.Load()) }

// Submit decides one batch of queries and returns its decisions. When
// every processor is busy and QueueDepth callers already wait for one
// it fails fast with ErrQueueFull rather than blocking — the
// backpressure contract. A context that ends while the caller waits for
// a processor returns the context's error.
func (s *Service) Submit(ctx context.Context, queries []Query) ([]Decision, error) {
	ds := make([]Decision, len(queries))
	if err := s.SubmitInto(ctx, queries, ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// SubmitInto is the allocation-free form of Submit: decision i for
// queries[i] is written into dst[i], which must hold at least
// len(queries) elements. The batch is decided on the calling goroutine,
// on a processor borrowed for it, by a decider whose tables live on
// this call's stack, so no pinned table outlives the call; dst is
// written only when SubmitInto returns nil. A SubmitInto round trip
// performs no heap allocation (guarded by TestSubmitIntoZeroAlloc).
//
//ring:hotpath
func (s *Service) SubmitInto(ctx context.Context, queries []Query, dst []Decision) error {
	if len(queries) > s.cfg.BatchLimit {
		//ring:allow rejected-batch path: the error itself is the allocation
		return fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(queries), s.cfg.BatchLimit)
	}
	if len(dst) < len(queries) {
		//ring:allow caller-bug path: the error itself is the allocation
		return fmt.Errorf("service: destination holds %d decisions for %d queries", len(dst), len(queries))
	}
	start := time.Now()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	s.callers.Add(1)
	s.mu.RUnlock()
	defer s.callers.Done()

	var p *processor
	select {
	case p = <-s.free:
	default:
		if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
			s.waiting.Add(-1)
			s.rejected.Add(1)
			return ErrQueueFull
		}
		select {
		case p = <-s.free:
		case <-ctx.Done():
		}
		s.waiting.Add(-1)
		if p == nil {
			return ctx.Err()
		}
	}
	if s.hold != nil {
		if s.holdAck != nil {
			s.holdAck <- struct{}{}
		}
		<-s.hold
	}
	var tabs [MaxShards]*Table
	dc := s.store.decider(&tabs)
	dc.Decide(queries, dst)
	p.mu.Lock()
	for i := range queries {
		dst[i].Worker = p.index
		p.counts.count(queries[i].Op, &dst[i])
	}
	p.counts.observe(&dc, start)
	p.mu.Unlock()
	s.free <- p
	return nil
}

// Close stops admitting callers and waits for every admitted one,
// waiting or deciding, to have its batch answered. Safe to call more
// than once.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.callers.Wait()
}

// eval answers q into d from the views of dc's pinned tables — the
// whole decision procedure. Malformed queries set d.Err and report no
// epoch interval; architectural outcomes (violations, traps) are
// regular decisions stamped with the consulted shard's table epoch.
// internal/spec states the same procedure as a plain model the tests
// check it against.
//
//ring:hotpath
func (dc *Decider) eval(q *Query, d *Decision) {
	d.Shard = -1
	segno := q.Segno
	if q.Segment != "" {
		n, ok := dc.names[q.Segment]
		if !ok {
			//ring:allow malformed query: Err formatting is the cold path
			d.Err = fmt.Sprintf("unknown segment %q", q.Segment)
			return
		}
		segno = n
	}
	if !q.Ring.Valid() {
		//ring:allow malformed query: Err formatting is the cold path
		d.Err = fmt.Sprintf("invalid ring %d", q.Ring)
		return
	}
	segShard := uint64(1) << (segno & dc.shardMask) // the target segment's shard

	switch q.Op {
	case OpAccess:
		var kind core.ViolationKind
		switch q.Kind {
		case core.AccessRead:
			d.stamp(dc, segShard)
			dc.validates++
			kind = core.ReadCheck(dc.view(segno), q.Wordno, q.Ring)
		case core.AccessWrite:
			d.stamp(dc, segShard)
			dc.validates++
			kind = core.WriteCheck(dc.view(segno), q.Wordno, q.Ring)
		case core.AccessExecute:
			d.stamp(dc, segShard)
			kind = core.FetchCheck(dc.view(segno), q.Wordno, q.Ring)
		default:
			//ring:allow malformed query: Err formatting is the cold path
			d.Err = fmt.Sprintf("invalid access kind %d", q.Kind)
			return
		}
		d.setViolationKind(kind)

	case OpCall:
		effRing := q.Ring
		if q.EffRing != nil {
			effRing = *q.EffRing
		}
		if !effRing.Valid() {
			//ring:allow malformed query: Err formatting is the cold path
			d.Err = fmt.Sprintf("invalid effective ring %d", effRing)
			return
		}
		d.stamp(dc, segShard)
		dec, kind := core.CallCheck(dc.view(segno), q.Wordno, q.Ring, effRing, q.SameSegment)
		if kind != core.ViolationNone {
			d.setViolationKind(kind)
			return
		}
		d.Allowed = true
		d.Outcome = dec.Outcome.String()
		d.NewRing = dec.NewRing
		d.Trapped = dec.Outcome == core.CallUpwardTrap

	case OpReturn:
		effRing := q.Ring
		if q.EffRing != nil {
			effRing = *q.EffRing
		}
		if !effRing.Valid() {
			//ring:allow malformed query: Err formatting is the cold path
			d.Err = fmt.Sprintf("invalid effective ring %d", effRing)
			return
		}
		d.stamp(dc, segShard)
		dec, kind := core.ReturnCheck(dc.view(segno), q.Wordno, q.Ring, effRing)
		if kind != core.ViolationNone {
			d.setViolationKind(kind)
			return
		}
		d.Allowed = true
		d.Outcome = dec.Outcome.String()
		d.NewRing = dec.NewRing
		d.Trapped = dec.Outcome == core.ReturnDownwardTrap

	case OpEffRing:
		// Validate the chain's ring fields before consulting any shard.
		for i := range q.Chain {
			if !q.Chain[i].Ring.Valid() {
				//ring:allow malformed query: Err formatting is the cold path
				d.Err = fmt.Sprintf("invalid ring %d in chain", q.Chain[i].Ring)
				return
			}
		}
		d.stamp(dc, chainShards(q.Chain, dc.shardMask))
		eff := q.Ring
		for _, step := range q.Chain {
			if step.PR {
				eff = core.EffectiveRingPR(eff, step.Ring)
				continue
			}
			// The indirect word itself is read during effective address
			// formation, validated like any operand read (Figure 5).
			v := dc.view(step.Segno)
			dc.validates++
			if kind := core.ReadCheck(v, 0, eff); kind != core.ViolationNone {
				d.setViolationKind(kind)
				return
			}
			eff = core.EffectiveRingIndirect(eff, step.Ring, v.R1)
		}
		d.Allowed = true
		d.NewRing = eff

	default:
		//ring:allow malformed query: Err formatting is the cold path
		d.Err = fmt.Sprintf("unknown op %q", q.Op)
	}
}

// stamp reports the set of shards d consulted (a bit per shard): the
// sum of the publication epochs of the tables dc pins for them (0 for
// none) as a degenerate interval, and the shard itself when the set
// holds exactly one.
//
//ring:hotpath
func (d *Decision) stamp(dc *Decider, mask uint64) {
	d.VersionLo = dc.pinSum(mask)
	d.VersionHi = d.VersionLo
	if bits.OnesCount64(mask) == 1 {
		d.Shard = bits.TrailingZeros64(mask)
	}
}

// setViolationKind fills the violation fields (allowed when kind is
// ViolationNone). ViolationKind.String returns an interned constant,
// so denial decisions allocate nothing either.
//
//ring:hotpath
func (d *Decision) setViolationKind(kind core.ViolationKind) {
	if kind == core.ViolationNone {
		d.Allowed = true
		return
	}
	d.Allowed = false
	d.Violation = kind.String()
	d.ViolationKind = kind
}
