package service

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
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
	Op Op `json:"op"`
	// Ring is the ring of execution (IPR.RING) for access/call/return,
	// the starting effective ring for effring.
	Ring Ring `json:"ring"`
	// Segment names the target segment; when empty, Segno is used
	// directly (numbers at or beyond the descriptor bound decide as
	// missing segments, exactly as the hardware would).
	Segment string `json:"segment,omitempty"`
	Segno   uint32 `json:"segno,omitempty"`
	// Wordno is the target word number.
	Wordno uint32 `json:"wordno,omitempty"`
	// Kind selects the access kind for OpAccess.
	Kind core.AccessKind `json:"kind,omitempty"`
	// EffRing is the effective ring of the operand address (TPR.RING)
	// for call/return; nil means equal to Ring.
	EffRing *Ring `json:"eff_ring,omitempty"`
	// SameSegment marks a call whose target lies in the segment
	// containing the CALL itself (the gate list is then ignored).
	SameSegment bool `json:"same_segment,omitempty"`
	// Chain is the address chain for OpEffRing.
	Chain []ChainStep `json:"chain,omitempty"`
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
	// Worker is the index of the worker (simulated processor) that
	// evaluated the decision.
	Worker int `json:"worker"`
}

// Config sizes a Service.
type Config struct {
	// Workers is the number of decision workers, each with its own MMU
	// reading the store's RCU descriptor snapshots; default 4.
	Workers int
	// QueueDepth bounds the batch queue; a full queue rejects Submit
	// with ErrQueueFull (backpressure). Default 64.
	QueueDepth int
	// BatchLimit caps the number of queries per submitted batch;
	// default 1024.
	BatchLimit int
}

// Service errors.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity: the caller should shed or retry (HTTP maps it to 429).
	ErrQueueFull = errors.New("service: decision queue full")
	// ErrClosed is returned by Submit after Close (HTTP maps it to 503).
	ErrClosed = errors.New("service: closed")
	// ErrBatchTooLarge is returned when one batch exceeds BatchLimit.
	ErrBatchTooLarge = errors.New("service: batch exceeds limit")
)

// batch is one queued unit of work. Batch descriptors are pooled and
// their reply channels reused, so a steady submit/decide cycle runs
// without allocating; decisions are written into the caller-supplied
// dst slice in place.
type batch struct {
	queries  []Query
	dst      []Decision
	resp     chan struct{}
	enqueued time.Time
}

// worker is one decision worker: a goroutine owning an MMU whose
// descriptor fetches resolve from rd, its registered epoch-counted
// snapshot reader. The read path takes no locks: rd pins each
// consulted shard's snapshot once per batch (rcu.go).
type worker struct {
	index int
	u     *mmu.MMU
	rd    *reader

	// statsMu guards published, the worker's reader counters copied
	// out after every batch so /metrics can read them without racing
	// the owner goroutine.
	statsMu   sync.Mutex
	published ReaderSnapshot //ring:guarded statsMu
}

// Service is the concurrent protection-decision engine: a worker pool
// over one Store, fed by a bounded batch queue.
type Service struct {
	store     *Store
	cfg       Config
	queue     chan *batch
	workers   []*worker
	events    *trace.AtomicCounters
	metrics   *Metrics
	batchPool sync.Pool

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool         //ring:guarded mu
	wg     sync.WaitGroup

	// hold, when non-nil (tests), blocks each worker before every batch
	// until the channel is closed — a deterministic way to fill the
	// queue and exercise backpressure. A worker about to park first
	// sends on holdAck (if set), so a test can wait for the park itself
	// rather than inferring it from queue length.
	hold    chan struct{}
	holdAck chan struct{}
}

// New starts a Service over st: Config.Workers goroutines, each with
// its own MMU reading the store's RCU descriptor snapshots through a
// registered epoch-counted reader.
func New(st *Store, cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = 1024
	}
	s := &Service{
		store:   st,
		cfg:     cfg,
		queue:   make(chan *batch, cfg.QueueDepth),
		events:  &trace.AtomicCounters{},
		metrics: newMetrics(),
	}
	s.batchPool.New = func() any { return &batch{resp: make(chan struct{}, 1)} }
	for i := 0; i < cfg.Workers; i++ {
		rd := st.newReader()
		u := mmu.New(nil, mmu.Options{Validate: true, Sink: s.events})
		u.SetSDWSource(rd)
		w := &worker{index: i, u: u, rd: rd}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go s.run(w)
	}
	return s, nil
}

// Store returns the descriptor store the service decides against.
func (s *Service) Store() *Store { return s.store }

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return len(s.workers) }

// QueueDepth returns the queue capacity.
func (s *Service) QueueDepth() int { return cap(s.queue) }

// QueueLen returns the current number of queued batches.
func (s *Service) QueueLen() int { return len(s.queue) }

// Submit enqueues one batch of queries and waits for its decisions.
// When the bounded queue is full it fails fast with ErrQueueFull
// rather than blocking — the backpressure contract. A cancelled
// context abandons the wait (the batch still completes; its reply
// channel is buffered, so no worker blocks).
func (s *Service) Submit(ctx context.Context, queries []Query) ([]Decision, error) {
	ds := make([]Decision, len(queries))
	if err := s.SubmitInto(ctx, queries, ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// SubmitInto is the allocation-free form of Submit: decision i for
// queries[i] is written into dst[i], which must hold at least
// len(queries) elements. With the batch-descriptor pool warm, a
// SubmitInto round trip performs no heap allocation (guarded by
// TestSubmitIntoZeroAlloc).
//
// After a cancelled context the batch keeps running: the worker still
// writes into dst and signals the (buffered) reply channel, so nothing
// blocks, but the caller must treat dst as poisoned — discard it
// rather than passing it to another in-flight call.
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
	b := s.batchPool.Get().(*batch)
	b.queries, b.dst, b.enqueued = queries, dst[:len(queries)], time.Now()

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.putBatch(b)
		return ErrClosed
	}
	select {
	case s.queue <- b:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.putBatch(b)
		s.metrics.rejected.Add(1)
		return ErrQueueFull
	}

	select {
	case <-b.resp:
		s.putBatch(b)
		return nil
	case <-ctx.Done():
		// Abandon the descriptor to the garbage collector: the worker
		// may still be writing through it.
		return ctx.Err()
	}
}

// putBatch drops a descriptor's references and returns it to the pool.
//
//ring:hotpath
func (s *Service) putBatch(b *batch) {
	b.queries, b.dst = nil, nil
	s.batchPool.Put(b)
}

// Close stops accepting work, lets the workers drain every queued
// batch, waits for them to exit, and unregisters their snapshot
// readers so they no longer delay store reclamation. Safe to call
// more than once.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	for _, w := range s.workers {
		s.store.releaseReader(w.rd)
	}
}

// run is one worker's loop: drain batches until the queue closes.
// The loop body between taking a batch and signalling its reply is the
// decision hot path.
//
//ring:hotpath
func (s *Service) run(w *worker) {
	defer s.wg.Done()
	for b := range s.queue {
		if s.hold != nil {
			if s.holdAck != nil {
				s.holdAck <- struct{}{}
			}
			<-s.hold
		}
		for i := range b.queries {
			s.decide(w, &b.queries[i], &b.dst[i])
		}
		w.rd.unpin() // end of batch: quiesce so mutators can reclaim
		s.metrics.observe(b)
		w.statsMu.Lock()
		w.published = ReaderSnapshot{Pins: w.rd.pins, Lookups: w.rd.lookups}
		w.statsMu.Unlock()
		b.resp <- struct{}{}
	}
}

// decide evaluates one query on worker w into d, in place and without
// allocating (for well-formed queries).
//
//ring:hotpath
//ring:pins
func (s *Service) decide(w *worker, q *Query, d *Decision) {
	*d = Decision{Worker: w.index}
	evalQuery(w.rd, w.u, q, d)
	s.metrics.count(q.Op, d)
}

// evalQuery answers q into d using unit u, whose descriptor fetches
// resolve from rd's pinned RCU snapshots — the whole decision
// procedure. Malformed queries set d.Err and report no epoch interval;
// architectural outcomes (violations, traps) are regular decisions
// stamped with the consulted shard's snapshot epoch. internal/spec
// states the same procedure as a plain model the tests check it
// against.
//
//ring:hotpath
//ring:pins
func evalQuery(rd *reader, u *mmu.MMU, q *Query, d *Decision) {
	st := rd.st
	d.Shard = -1
	segno := q.Segno
	if q.Segment != "" {
		n, ok := st.Segno(q.Segment)
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

	switch q.Op {
	case OpAccess:
		switch q.Kind {
		case core.AccessRead, core.AccessWrite, core.AccessExecute:
		default:
			//ring:allow malformed query: Err formatting is the cold path
			d.Err = fmt.Sprintf("invalid access kind %d", q.Kind)
			return
		}
		d.stamp(rd, 1<<st.ShardOf(segno))
		kind, err := u.Access(segno, q.Wordno, q.Ring, q.Kind)
		if err != nil {
			d.Err = err.Error()
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
		d.stamp(rd, 1<<st.ShardOf(segno))
		dec, kind, err := u.Call(segno, q.Wordno, q.Ring, effRing, q.SameSegment)
		if err != nil {
			d.Err = err.Error()
			return
		}
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
		d.stamp(rd, 1<<st.ShardOf(segno))
		dec, kind, err := u.Return(segno, q.Wordno, q.Ring, effRing)
		if err != nil {
			d.Err = err.Error()
			return
		}
		if kind != core.ViolationNone {
			d.setViolationKind(kind)
			return
		}
		d.Allowed = true
		d.Outcome = dec.Outcome.String()
		d.NewRing = dec.NewRing
		d.Trapped = dec.Outcome == core.ReturnDownwardTrap

	case OpEffRing:
		// Pre-scan the chain: validate the ring fields and find which
		// shards the indirect steps will consult.
		var mask uint64 // consulted shard set (MaxShards ≤ 64)
		for i := range q.Chain {
			step := &q.Chain[i]
			if !step.Ring.Valid() {
				//ring:allow malformed query: Err formatting is the cold path
				d.Err = fmt.Sprintf("invalid ring %d in chain", step.Ring)
				return
			}
			if !step.PR {
				mask |= 1 << st.ShardOf(step.Segno)
			}
		}
		d.stamp(rd, mask)
		eff := q.Ring
		for _, step := range q.Chain {
			if step.PR {
				eff = core.EffectiveRingPR(eff, step.Ring)
				continue
			}
			sdw, err := u.FetchSDW(step.Segno)
			if err != nil {
				d.Err = err.Error()
				return
			}
			v := sdw.View()
			// The indirect word itself is read during effective address
			// formation, validated like any operand read (Figure 5).
			if kind := u.AccessView(v, step.Segno, 0, eff, core.AccessRead); kind != core.ViolationNone {
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
// sum of the publication epochs of the snapshots rd pins for them (0
// for none) as a degenerate interval, and the shard itself when the
// set holds exactly one.
//
//ring:hotpath
//ring:pins
func (d *Decision) stamp(rd *reader, mask uint64) {
	d.VersionLo = rd.pinSum(mask)
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
