package rings

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/service"
)

// Protection-decision re-exports: the vocabulary of the decision
// service (internal/service), usable in-process through Checker or
// over HTTP through the ringd daemon.
type (
	// Segment describes one segment of a protection image served by a
	// Checker (name, size, access flags, brackets, gate count).
	Segment = service.Segment
	// Query is one protection question: an access, call, return or
	// effective-ring computation.
	Query = service.Query
	// Decision is the service's answer to one Query.
	Decision = service.Decision
	// ChainStep is one contribution to effective-ring formation.
	ChainStep = service.ChainStep
	// Op names a protection query kind.
	Op = service.Op
	// AccessKind selects read, write or execute validation.
	AccessKind = core.AccessKind
)

// Query operations and access kinds.
const (
	OpAccess  = service.OpAccess
	OpCall    = service.OpCall
	OpReturn  = service.OpReturn
	OpEffRing = service.OpEffRing

	AccessRead    = core.AccessRead
	AccessWrite   = core.AccessWrite
	AccessExecute = core.AccessExecute
)

// Checker errors, re-exported from the decision service.
var (
	// ErrQueueFull reports that the bounded decision queue was at
	// capacity — shed or retry.
	ErrQueueFull = service.ErrQueueFull
	// ErrClosed reports a Check after Close.
	ErrClosed = service.ErrClosed
	// ErrBatchTooLarge reports a batch beyond the configured limit.
	ErrBatchTooLarge = service.ErrBatchTooLarge
)

// Checker answers protection queries against a descriptor image
// without running any simulated program: the paper's validation
// hardware packaged as a policy-decision point. It wraps the decision
// service with a single worker, so decisions are strictly ordered with
// respect to mutations made through the same Checker.
//
//	chk, err := rings.NewChecker([]rings.Segment{
//	    {Name: "data", Size: 64, Read: true, Write: true,
//	     Brackets: rings.Brackets{R1: 2, R2: 4, R3: 4}},
//	})
//	d, err := chk.CheckAccess(4, "data", 3, rings.AccessRead)
//	// d.Allowed == true
//
// For concurrent serving, run the ringd daemon instead.
type Checker struct {
	store *service.Store
	svc   *service.Service
}

// CheckerConfig sizes a Checker built with NewCheckerWith. The zero
// value matches NewChecker: one worker, default queue and shard
// counts.
type CheckerConfig struct {
	// Workers is the decision worker-pool size; default 1. Workers
	// read immutable RCU descriptor snapshots pinned per batch, so
	// with more than one worker decisions never lock against
	// mutations; ordering between batches and mutations is up to the
	// scheduler (each Decision reports the publication epoch of the
	// shard snapshot it consulted).
	Workers int
	// QueueDepth bounds the batch queue; a full queue makes Check fail
	// fast with service.ErrQueueFull.
	QueueDepth int
	// BatchLimit caps the number of queries per Check call.
	BatchLimit int
	// Shards is the descriptor-store shard count (a power of two);
	// default 8.
	Shards int
}

// NewChecker builds a descriptor image from segs (numbered in order
// from 0) and starts a single-worker decision service over it. Close
// the Checker when done.
func NewChecker(segs []Segment) (*Checker, error) {
	return NewCheckerWith(CheckerConfig{}, segs)
}

// NewCheckerWith is NewChecker with explicit sizing — worker pool,
// queue and descriptor-store shards. cmd/ringload uses it to drive the
// decision path in-process at configurable parallelism.
func NewCheckerWith(cfg CheckerConfig, segs []Segment) (*Checker, error) {
	st, err := service.NewStore(service.StoreConfig{Shards: cfg.Shards}, segs)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	svc, err := service.New(st, service.Config{
		Workers:    workers,
		QueueDepth: cfg.QueueDepth,
		BatchLimit: cfg.BatchLimit,
	})
	if err != nil {
		return nil, err
	}
	return &Checker{store: st, svc: svc}, nil
}

// Close stops the decision worker.
func (c *Checker) Close() { c.svc.Close() }

// Check answers a batch of queries.
func (c *Checker) Check(queries ...Query) ([]Decision, error) {
	return c.svc.Submit(context.Background(), queries)
}

// CheckInto answers a batch of queries into a caller-supplied decision
// slice (dst[i] answers queries[i]; dst must hold at least
// len(queries) elements). With the service's descriptor pool warm this
// round trip performs no heap allocation — the form load generators
// and embedders on a hot path should use.
//
//ring:hotpath
func (c *Checker) CheckInto(queries []Query, dst []Decision) error {
	return c.svc.SubmitInto(context.Background(), queries, dst)
}

// Shards returns the descriptor-store shard count.
func (c *Checker) Shards() int { return c.store.Shards() }

// checkOne submits a single query.
func (c *Checker) checkOne(q Query) (Decision, error) {
	ds, err := c.svc.Submit(context.Background(), []Query{q})
	if err != nil {
		return Decision{}, err
	}
	return ds[0], nil
}

// CheckAccess validates one reference: may ring read, write or execute
// word wordno of the named segment?
func (c *Checker) CheckAccess(ring Ring, segment string, wordno uint32, kind AccessKind) (Decision, error) {
	return c.checkOne(Query{Op: OpAccess, Ring: ring, Segment: segment, Wordno: wordno, Kind: kind})
}

// CheckCall evaluates the CALL decision of Figure 8 for a transfer from
// ring to the named segment at offset: gate list, bracket placement,
// and the resulting ring switch (Decision.Outcome, Decision.NewRing).
func (c *Checker) CheckCall(ring Ring, segment string, offset uint32) (Decision, error) {
	return c.checkOne(Query{Op: OpCall, Ring: ring, Segment: segment, Wordno: offset})
}

// CheckReturn evaluates the RETURN decision of Figure 9 for a return
// from ring to effRing through the named segment at offset.
func (c *Checker) CheckReturn(ring, effRing Ring, segment string, offset uint32) (Decision, error) {
	return c.checkOne(Query{Op: OpReturn, Ring: ring, Segment: segment, Wordno: offset, EffRing: &effRing})
}

// EffectiveRing folds an address chain per Figure 5, starting from
// ring: pointer-register steps raise the effective ring directly,
// indirect steps also validate the indirect-word read and fold in the
// container's R1. The result is Decision.NewRing.
func (c *Checker) EffectiveRing(ring Ring, chain ...ChainStep) (Decision, error) {
	return c.checkOne(Query{Op: OpEffRing, Ring: ring, Chain: chain})
}

// Segno resolves a segment name.
func (c *Checker) Segno(name string) (uint32, bool) { return c.store.Segno(name) }

// SetBrackets replaces the named segment's access flags, brackets and
// gate count — ring-0 supervisor functionality, published to the
// decision workers as a new descriptor snapshot.
func (c *Checker) SetBrackets(segment string, read, write, execute bool, b Brackets, gates uint32) error {
	segno, ok := c.store.Segno(segment)
	if !ok {
		return unknownSegment(segment)
	}
	return c.store.SetBrackets(segno, read, write, execute, b, gates)
}

// Revoke clears the named segment's present flag: every subsequent
// reference decides as a missing-segment fault until Restore.
func (c *Checker) Revoke(segment string) error {
	segno, ok := c.store.Segno(segment)
	if !ok {
		return unknownSegment(segment)
	}
	return c.store.Revoke(segno)
}

// Restore re-sets the present flag of a revoked segment.
func (c *Checker) Restore(segment string) error {
	segno, ok := c.store.Segno(segment)
	if !ok {
		return unknownSegment(segment)
	}
	return c.store.Restore(segno)
}

// Metrics returns the decision counters (decisions, faults by kind,
// snapshot-read and latency histograms).
func (c *Checker) Metrics() service.Snapshot { return c.svc.Snapshot() }

func unknownSegment(name string) error {
	return fmt.Errorf("rings: unknown segment %q", name)
}
