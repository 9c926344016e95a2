package service

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/trace"
)

// violationKinds is the number of distinct ViolationKind values.
const violationKinds = core.ViolationKindCount

// counters is one processor's share of the service's always-on
// instrumentation: decision counts, faults by kind, and a histogram of
// batch latency. They are plain integers,
// written by the borrower under the processor's mutex; Snapshot sums
// them across processors.
type counters struct {
	batches uint64
	queries uint64
	allowed uint64
	denied  uint64
	errors  uint64
	trapped uint64

	opAccess  uint64
	opCall    uint64
	opReturn  uint64
	opEffRing uint64
	opOther   uint64

	faults [violationKinds]uint64
	// pins, lookups and validates sum the counts of the batches'
	// deciders (Decider).
	pins, lookups, validates uint64
	// latency holds each batch's submit-to-completion time.
	latency hist.Hist
}

// count tallies one decision.
func (c *counters) count(op Op, d *Decision) {
	c.queries++
	switch op {
	case OpAccess:
		c.opAccess++
	case OpCall:
		c.opCall++
	case OpReturn:
		c.opReturn++
	case OpEffRing:
		c.opEffRing++
	default:
		c.opOther++
	}
	switch {
	case d.Err != "":
		c.errors++
	case d.Allowed:
		c.allowed++
		if d.Trapped {
			c.trapped++
		}
	default:
		c.denied++
		if k := int(d.ViolationKind); k >= 0 && k < violationKinds {
			c.faults[k]++
		}
	}
}

// observe tallies one completed batch, the counts of the decider that
// decided it, and its submit-to-completion latency.
func (c *counters) observe(dc *Decider, start time.Time) {
	c.batches++
	c.pins += dc.pins
	c.lookups += dc.lookups
	c.validates += dc.validates
	c.latency.Add(time.Since(start).Nanoseconds())
}

// add folds o into c.
func (c *counters) add(o *counters) {
	c.batches += o.batches
	c.queries += o.queries
	c.allowed += o.allowed
	c.denied += o.denied
	c.errors += o.errors
	c.trapped += o.trapped
	c.opAccess += o.opAccess
	c.opCall += o.opCall
	c.opReturn += o.opReturn
	c.opEffRing += o.opEffRing
	c.opOther += o.opOther
	for k := range c.faults {
		c.faults[k] += o.faults[k]
	}
	c.pins += o.pins
	c.lookups += o.lookups
	c.validates += o.validates
	c.latency.Merge(&o.latency)
}

// LatencyBucket is one non-empty histogram bucket.
type LatencyBucket struct {
	// LoNs and HiNs bound the bucket: [LoNs, HiNs) nanoseconds.
	LoNs  int64  `json:"lo_ns"`
	HiNs  int64  `json:"hi_ns"`
	Count uint64 `json:"count"`
}

// ReaderSnapshot reports one processor's snapshot-read counters: how
// many times it pinned a shard snapshot (once per consulted shard per
// batch) and how many descriptor lookups those pins served. A high
// Lookups/Pins ratio is the snapshot-era analogue of a high cache hit
// rate — many decisions amortized over one atomic pointer load.
type ReaderSnapshot struct {
	Pins    uint64 `json:"pins"`
	Lookups uint64 `json:"lookups"`
}

// Snapshot is one /metrics observation.
type Snapshot struct {
	Workers  int    `json:"workers"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	Version  uint64 `json:"version"`
	Batches  uint64 `json:"batches"`
	Queries  uint64 `json:"queries"`
	Rejected uint64 `json:"rejected"`
	Allowed  uint64 `json:"allowed"`
	Denied   uint64 `json:"denied"`
	Errors   uint64 `json:"errors"`
	Trapped  uint64 `json:"trapped"`
	// Ops counts queries per operation.
	Ops map[string]uint64 `json:"ops"`
	// Faults counts denials per architectural violation kind.
	Faults map[string]uint64 `json:"faults"`
	// RCU reports the descriptor store's snapshot publications (see
	// rcu.go).
	RCU RCUSnapshot `json:"rcu"`
	// Reads sums the per-processor snapshot-read counters.
	Reads ReaderSnapshot `json:"reads"`
	// PerWorkerReads lists each processor's own counters, in index
	// order.
	PerWorkerReads []ReaderSnapshot `json:"per_worker_reads"`
	// Events tallies validation events by trace kind across all
	// processors: "validate" counts read and write accesses and effring
	// indirect steps (the references the simulator's MMU traces).
	Events map[string]uint64 `json:"events"`
	// LatencyNs is the non-empty part of the batch latency histogram,
	// in ascending order.
	LatencyNs []LatencyBucket `json:"latency_ns"`
}

// metricKey normalizes a human-readable name into the snake_case key
// space the rest of /metrics uses: core.ViolationKind strings carry
// spaces ("outside read bracket") and trace.Kind strings hyphens
// ("ring-switch"), while every struct field marshals as snake_case.
// The map keys in Faults and Events go through this so one /metrics
// document never mixes naming styles. Decision.Violation on the
// /v1/check wire keeps the human-readable form.
func metricKey(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '-':
			return '_'
		}
		return r
	}, s)
}

// Snapshot assembles the full /metrics view, summing the processors'
// counters.
func (s *Service) Snapshot() Snapshot {
	var m counters
	var perProc []ReaderSnapshot
	for _, p := range s.procs {
		p.mu.Lock()
		m.add(&p.counts)
		rd := ReaderSnapshot{Pins: p.counts.pins, Lookups: p.counts.lookups}
		p.mu.Unlock()
		perProc = append(perProc, rd)
	}
	snap := Snapshot{
		Workers:  len(s.procs),
		QueueLen: s.QueueLen(),
		QueueCap: s.QueueDepth(),
		Version:  s.store.Version(),
		Batches:  m.batches,
		Queries:  m.queries,
		Rejected: s.rejected.Load(),
		Allowed:  m.allowed,
		Denied:   m.denied,
		Errors:   m.errors,
		Trapped:  m.trapped,
		Ops: map[string]uint64{
			string(OpAccess):  m.opAccess,
			string(OpCall):    m.opCall,
			string(OpReturn):  m.opReturn,
			string(OpEffRing): m.opEffRing,
		},
		Faults:         map[string]uint64{},
		RCU:            s.store.RCUStats(),
		Reads:          ReaderSnapshot{Pins: m.pins, Lookups: m.lookups},
		PerWorkerReads: perProc,
		Events:         map[string]uint64{},
	}
	if m.opOther > 0 {
		snap.Ops["other"] = m.opOther
	}
	for k, n := range m.faults {
		if n > 0 {
			snap.Faults[metricKey(core.ViolationKind(k).String())] = n
		}
	}
	if m.validates > 0 {
		snap.Events[metricKey(trace.KindValidate.String())] = m.validates
	}
	m.latency.Buckets(func(lo, hi int64, n uint64) {
		snap.LatencyNs = append(snap.LatencyNs, LatencyBucket{LoNs: lo, HiNs: hi, Count: n})
	})
	return snap
}
