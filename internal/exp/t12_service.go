package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/spec"
)

// T12: the protection-decision service under concurrent load. The
// service wraps the MMU decision procedure in a pool of workers — one
// decision worker each, reading immutable RCU descriptor snapshots
// pinned per batch — while a supervisor thread streams descriptor
// edits (SetBrackets, Revoke, Restore) through the store's publish
// path. Every decision reports the publication epoch of the snapshot
// it consulted; replaying the edit script on the executable
// specification (internal/spec) gives the oracle, and each concurrent
// decision must equal the model's answer at that epoch's state, stamp
// included — an exact check, not an interval search.

// t12Segments is the image under test.
func t12Segments() []service.Segment {
	return []service.Segment{
		{Name: "data", Size: 64, Read: true, Write: true,
			Brackets: core.Brackets{R1: 2, R2: 4, R3: 4}},
		{Name: "code", Size: 64, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: 2},
		{Name: "secret", Size: 16, Read: true,
			Brackets: core.Brackets{R1: 0, R2: 1, R3: 1}},
		{Name: "lib", Size: 64, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 0, R2: 7, R3: 7}},
	}
}

// t12Editor is what the edit script drives: the service's store, or
// the spec model replaying it.
type t12Editor interface {
	SetBrackets(segno uint32, read, write, execute bool, b core.Brackets, gates uint32) error
	Revoke(segno uint32) error
	Restore(segno uint32) error
}

// t12Edit applies edit i of the supervisor's script to e: the brackets
// of "data" and the present bit of "code", toggled back and forth.
func t12Edit(e t12Editor, i int) error {
	switch i % 4 {
	case 0:
		return e.SetBrackets(0, true, true, false, core.Brackets{R1: 0, R2: 1, R3: 1}, 0)
	case 1:
		return e.Revoke(1)
	case 2:
		return e.SetBrackets(0, true, true, false, core.Brackets{R1: 2, R2: 4, R3: 4}, 0)
	default:
		return e.Restore(1)
	}
}

// t12Probes is the fixed query batch the load generator submits; the
// first eight depend on the mutated descriptors, the last two are
// static controls.
func t12Probes() []service.Query {
	eff3 := core.Ring(3)
	return []service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 1, Segment: "data", Kind: core.AccessWrite},
		{Op: service.OpAccess, Ring: 3, Segment: "data", Kind: core.AccessWrite},
		{Op: service.OpAccess, Ring: 2, Segment: "code", Kind: core.AccessExecute},
		{Op: service.OpCall, Ring: 4, Segment: "code", Wordno: 1},
		{Op: service.OpCall, Ring: 0, Segment: "code", Wordno: 0},
		{Op: service.OpReturn, Ring: 2, Segment: "code", EffRing: &eff3},
		{Op: service.OpEffRing, Ring: 1, Chain: []service.ChainStep{{Ring: 0, Segno: 0}}},
		{Op: service.OpAccess, Ring: 5, Segment: "secret", Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 7, Segment: "lib", Kind: core.AccessExecute},
	}
}

// t12Shards is 1: T12's oracle indexes the whole edit script by
// epoch/2, which is only meaningful when one shard's epoch counts every
// mutation. The per-shard version of this property is exercised by
// TestShardedConcurrentOracle in internal/service.
const t12Shards = 1

func init() {
	register("T12", "decision service: concurrent workers vs. single-threaded oracle", func(r *Result) error {
		const (
			workers   = 4
			clients   = 4
			rounds    = 40
			mutations = 400
		)
		ctx := context.Background()

		st, err := service.NewStore(service.StoreConfig{Shards: t12Shards}, t12Segments())
		if err != nil {
			return err
		}
		svc, err := service.New(st, service.Config{Workers: workers, QueueDepth: 128})
		if err != nil {
			return err
		}
		defer svc.Close()

		probes := t12Probes()

		// Load phase: in every round, the clients' batches race one slice
		// of the edit script. Within a round the interleaving is up to the
		// scheduler; the round barrier guarantees that edits land between
		// batches across the run even on a single-CPU host, so later
		// batches must observe them (each batch pins the then-current
		// snapshot, so a published edit is visible to every batch that
		// starts after it).
		type obs struct{ ds []service.Decision }
		results := make(chan obs, clients*rounds)
		errs := make(chan error, clients+1)
		var shedCount atomic.Uint64
		perRound := mutations / rounds
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ds, err := svc.Submit(ctx, probes)
					if err == service.ErrQueueFull {
						shedCount.Add(1)
						return
					}
					if err != nil {
						errs <- err
						return
					}
					results <- obs{ds}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := round * perRound; i < (round+1)*perRound; i++ {
					if err := t12Edit(st, i); err != nil {
						errs <- err
						return
					}
				}
			}()
			wg.Wait()
		}
		close(results)
		select {
		case err := <-errs:
			return err
		default:
		}
		if got := st.Version(); got != 2*mutations {
			return fmt.Errorf("final store version %d, want %d", got, 2*mutations)
		}

		// Oracle phase: the spec model stepped through the same script
		// answers each probe at every state k.
		model := spec.New(t12Shards, t12Segments())
		oracle := make([][]service.Decision, mutations+1)
		for k := 0; k <= mutations; k++ {
			if k > 0 {
				if err := t12Edit(model, k-1); err != nil {
					return fmt.Errorf("model mutation %d: %v", k, err)
				}
			}
			oracle[k] = make([]service.Decision, len(probes))
			for i, q := range probes {
				oracle[k][i] = model.Decide(q)
			}
		}

		// Verdict: every concurrent decision is one published epoch and
		// equals the model at that epoch's state.
		checked := 0
		for o := range results {
			for i, d := range o.ds {
				lo, hi := d.VersionLo, d.VersionHi
				if lo != hi || lo%2 != 0 || lo > 2*mutations {
					return fmt.Errorf("probe %d: epoch interval [%d,%d] is not one published epoch", i, lo, hi)
				}
				d.Worker = 0
				if want := oracle[lo/2][i]; d != want {
					return fmt.Errorf("probe %d: concurrent decision %+v, model says %+v", i, d, want)
				}
				checked++
			}
		}
		if checked == 0 {
			return fmt.Errorf("no decisions to check")
		}

		snap := svc.Snapshot()
		if snap.Reads.Pins == 0 || snap.Reads.Lookups == 0 {
			return fmt.Errorf("/metrics reports idle snapshot readers: %+v", snap.Reads)
		}
		if snap.RCU.Publishes != mutations {
			return fmt.Errorf("%d snapshot publishes for %d descriptor edits", snap.RCU.Publishes, mutations)
		}
		if len(snap.LatencyNs) == 0 {
			return fmt.Errorf("/metrics reports an empty latency histogram")
		}

		r.addf("%d workers (one MMU reading pinned RCU snapshots each), %d clients x %d probe batches,",
			workers, clients, rounds)
		r.addf("%d descriptor edits, each publishing a fresh shard snapshot", mutations)
		r.addf("")
		r.addf("decisions checked against the spec model: %d (every one identical,", checked)
		r.addf("epoch stamp included, to the model's answer at the state of its pinned")
		r.addf("snapshot; %d batches shed by backpressure)", shedCount.Load())
		r.addf("")
		r.addf("per-worker snapshot readers (pins amortize lookups, like cache hits):")
		r.addf("%-8s %10s %10s %14s", "worker", "pins", "lookups", "lookups/pin")
		for i, c := range snap.PerWorkerReads {
			perPin := float64(c.Lookups)
			if c.Pins > 0 {
				perPin /= float64(c.Pins)
			}
			r.addf("%-8d %10d %10d %14.1f", i, c.Pins, c.Lookups, perPin)
		}
		r.addf("")
		r.addf("store RCU: %d publishes, %d buffers reused, %d recycled, %d dropped",
			snap.RCU.Publishes, snap.RCU.Reused, snap.RCU.Recycled, snap.RCU.Dropped)
		r.addf("")
		r.addf("decision mix: %d allowed, %d denied, %d trapped; faults by kind:",
			snap.Allowed, snap.Denied, snap.Trapped)
		for kind, n := range snap.Faults {
			r.addf("  %-50s %8d", kind, n)
		}
		r.addf("")
		r.addf("batch latency histogram: %d non-empty power-of-two buckets", len(snap.LatencyNs))
		r.addf("")
		r.addf("snapshot publication keeps readers coherent without locks: a worker")
		r.addf("pins one immutable snapshot per batch, so every decision is")
		r.addf("bit-identical to the sequential model at that snapshot's epoch")

		r.metric("workers", workers)
		r.metric("decisions", float64(checked))
		r.metric("oracle_states", float64(mutations+1))
		r.metric("shed_batches", float64(shedCount.Load()))
		if snap.Reads.Pins > 0 {
			r.metric("lookups_per_pin", float64(snap.Reads.Lookups)/float64(snap.Reads.Pins))
		}
		r.metric("snapshot_publishes", float64(snap.RCU.Publishes))
		r.metric("buffers_reused", float64(snap.RCU.Reused))
		r.metric("latency_buckets", float64(len(snap.LatencyNs)))
		return nil
	})
}
