package service

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// violationKinds is the number of distinct ViolationKind values.
const violationKinds = core.ViolationKindCount

// latencyBuckets is the number of power-of-two latency histogram
// buckets; bucket i counts batches whose queue-to-completion latency
// lay in [2^i, 2^(i+1)) nanoseconds.
const latencyBuckets = 32

// Metrics is the service's always-on instrumentation: decision counts,
// faults by kind, backpressure rejections, and a power-of-two latency
// histogram. All counters are atomic; readers see a monitoring-grade
// (not transactionally consistent) view.
type Metrics struct {
	batches  atomic.Uint64
	queries  atomic.Uint64
	rejected atomic.Uint64
	allowed  atomic.Uint64
	denied   atomic.Uint64
	errors   atomic.Uint64
	trapped  atomic.Uint64

	opAccess  atomic.Uint64
	opCall    atomic.Uint64
	opReturn  atomic.Uint64
	opEffRing atomic.Uint64
	opOther   atomic.Uint64

	faults  [violationKinds]atomic.Uint64
	latency [latencyBuckets]atomic.Uint64
}

func newMetrics() *Metrics { return &Metrics{} }

// count tallies one decision.
func (m *Metrics) count(op Op, d *Decision) {
	m.queries.Add(1)
	switch op {
	case OpAccess:
		m.opAccess.Add(1)
	case OpCall:
		m.opCall.Add(1)
	case OpReturn:
		m.opReturn.Add(1)
	case OpEffRing:
		m.opEffRing.Add(1)
	default:
		m.opOther.Add(1)
	}
	switch {
	case d.Err != "":
		m.errors.Add(1)
	case d.Allowed:
		m.allowed.Add(1)
		if d.Trapped {
			m.trapped.Add(1)
		}
	default:
		m.denied.Add(1)
		if k := int(d.ViolationKind); k >= 0 && k < violationKinds {
			m.faults[k].Add(1)
		}
	}
}

// observe tallies one completed batch and its queue-to-completion
// latency.
func (m *Metrics) observe(b *batch) {
	m.batches.Add(1)
	ns := time.Since(b.enqueued).Nanoseconds()
	bucket := 0
	for v := ns; v > 1 && bucket < latencyBuckets-1; v >>= 1 {
		bucket++
	}
	m.latency[bucket].Add(1)
}

// LatencyBucket is one non-empty histogram bucket.
type LatencyBucket struct {
	// LoNs and HiNs bound the bucket: [LoNs, HiNs) nanoseconds.
	LoNs  int64  `json:"lo_ns"`
	HiNs  int64  `json:"hi_ns"`
	Count uint64 `json:"count"`
}

// ReaderSnapshot reports one worker's snapshot-read counters: how
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
	// Reads sums the per-worker snapshot-read counters.
	Reads ReaderSnapshot `json:"reads"`
	// PerWorkerReads lists each worker's own counters (one decision
	// worker each).
	PerWorkerReads []ReaderSnapshot `json:"per_worker_reads"`
	// Events tallies trace events by kind across all workers, fed from
	// the zero-alloc mmu.Sink each worker's unit records into.
	Events map[string]uint64 `json:"events"`
	// LatencyNs is the non-empty part of the batch latency histogram.
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

// Metrics returns the service's counters (live; reads are atomic).
func (s *Service) Metrics() *Metrics { return s.metrics }

// Events returns the shared trace-event counters every worker's MMU
// records into.
func (s *Service) Events() *trace.AtomicCounters { return s.events }

// ReadStats sums the workers' published snapshot-read counters.
func (s *Service) ReadStats() ReaderSnapshot {
	var sum ReaderSnapshot
	for _, w := range s.workers {
		w.statsMu.Lock()
		st := w.published
		w.statsMu.Unlock()
		sum.Pins += st.Pins
		sum.Lookups += st.Lookups
	}
	return sum
}

// Snapshot assembles the full /metrics view.
func (s *Service) Snapshot() Snapshot {
	m := s.metrics
	snap := Snapshot{
		Workers:  len(s.workers),
		QueueLen: len(s.queue),
		QueueCap: cap(s.queue),
		Version:  s.store.Version(),
		Batches:  m.batches.Load(),
		Queries:  m.queries.Load(),
		Rejected: m.rejected.Load(),
		Allowed:  m.allowed.Load(),
		Denied:   m.denied.Load(),
		Errors:   m.errors.Load(),
		Trapped:  m.trapped.Load(),
		Ops: map[string]uint64{
			string(OpAccess):  m.opAccess.Load(),
			string(OpCall):    m.opCall.Load(),
			string(OpReturn):  m.opReturn.Load(),
			string(OpEffRing): m.opEffRing.Load(),
		},
		Faults: map[string]uint64{},
		Events: map[string]uint64{},
	}
	if n := m.opOther.Load(); n > 0 {
		snap.Ops["other"] = n
	}
	for k := 0; k < violationKinds; k++ {
		if n := m.faults[k].Load(); n > 0 {
			snap.Faults[metricKey(core.ViolationKind(k).String())] = n
		}
	}
	for k := 0; k < trace.KindCount; k++ {
		if n := s.events.Of(trace.Kind(k)); n > 0 {
			snap.Events[metricKey(trace.Kind(k).String())] = n
		}
	}
	snap.RCU = s.store.RCUStats()
	for _, w := range s.workers {
		w.statsMu.Lock()
		st := w.published
		w.statsMu.Unlock()
		snap.Reads.Pins += st.Pins
		snap.Reads.Lookups += st.Lookups
		snap.PerWorkerReads = append(snap.PerWorkerReads, st)
	}
	for i := 0; i < latencyBuckets; i++ {
		if n := m.latency[i].Load(); n > 0 {
			lo := int64(1) << i
			if i == 0 {
				lo = 0
			}
			snap.LatencyNs = append(snap.LatencyNs, LatencyBucket{
				LoNs: lo, HiNs: int64(1) << (i + 1), Count: n,
			})
		}
	}
	return snap
}
