package service_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/service"
	"repro/internal/spec"
)

// TestShardedConcurrentOracle extends the T12 differential property to
// the sharded store: one mutator goroutine per shard streams descriptor
// edits while four workers answer single-segment probes. Every decision
// reports the epoch of the shard it consulted; replaying that shard's
// script on the spec model, the decision must equal the model's answer
// at that epoch, stamp included — regardless of what the other shards'
// mutators were doing at the time. Run with -race to also exercise the
// snapshot publication and the per-shard locks under the race
// detector.
func TestShardedConcurrentOracle(t *testing.T) {
	const (
		shards    = 4
		mutations = 600 // per shard
		rounds    = 30
		clients   = 4
	)
	st, err := service.NewStore(service.StoreConfig{Shards: shards}, service.TestSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := service.New(st, service.Config{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()

	probes, probeSegno := service.ShardProbes()
	scripts := [3][]func(e service.Editor) error{}
	for g := range scripts {
		scripts[g] = service.ShardScript(uint32(g), mutations)
	}

	// Concurrent phase: in every round the clients' batches race one
	// slice of each shard's script, with the three mutators themselves
	// racing one another. The round barrier guarantees edits interleave
	// with decisions across the run even on a single-CPU host.
	results := make(chan []service.Decision, clients*rounds)
	perRound := mutations / rounds
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ds, err := svc.Submit(context.Background(), probes)
				if err != nil {
					if errors.Is(err, service.ErrQueueFull) {
						return // backpressure is a legal answer
					}
					t.Errorf("Submit: %v", err)
					return
				}
				results <- ds
			}()
		}
		for g := range scripts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, m := range scripts[g][round*perRound : (round+1)*perRound] {
					if err := m(st); err != nil {
						t.Errorf("shard %d mutation: %v", g, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	close(results)

	for g := range scripts {
		if got := st.ShardVersion(g); got != 2*mutations {
			t.Fatalf("shard %d final epoch = %d, want %d", g, got, 2*mutations)
		}
	}
	if got := st.ShardVersion(3); got != 0 {
		t.Fatalf("empty shard 3 epoch = %d, want 0", got)
	}
	if got := st.Version(); got != uint64(len(scripts))*2*mutations {
		t.Fatalf("store version = %d, want %d", got, len(scripts)*2*mutations)
	}

	// Oracle: oracle[g][k][i] is probe i's decision on a model stepped
	// through k edits of shard g's script alone. Probes are
	// single-segment, so the other shards' states cannot influence a
	// shard-g decision — which is exactly the independence the match
	// below certifies.
	oracle := [3][][]service.Decision{}
	for g := range scripts {
		model := spec.New(shards, service.TestSegments())
		oracle[g] = make([][]service.Decision, mutations+1)
		for k := 0; k <= mutations; k++ {
			if k > 0 {
				if err := scripts[g][k-1](model); err != nil {
					t.Fatalf("model shard %d mutation %d: %v", g, k, err)
				}
			}
			oracle[g][k] = make([]service.Decision, len(probes))
			for i := range probes {
				oracle[g][k][i] = model.Decide(probes[i])
			}
		}
	}

	checked := 0
	for ds := range results {
		for i, d := range ds {
			g := int(probeSegno[i])
			if d.VersionLo != d.VersionHi || d.VersionLo%2 != 0 || d.VersionLo > 2*mutations {
				t.Fatalf("probe %d: epoch interval [%d,%d] is not one published epoch", i, d.VersionLo, d.VersionHi)
			}
			d.Worker = 0
			if want := oracle[g][d.VersionLo/2][i]; d != want {
				t.Fatalf("probe %d (shard %d): decision %+v, model says %+v", i, g, d, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no decisions checked")
	}
	t.Logf("checked %d decisions against %d model states per shard", checked, mutations+1)

	snap := svc.Snapshot()
	if snap.Reads.Pins == 0 || snap.Reads.Lookups == 0 {
		t.Errorf("snapshot readers not exercised: %+v", snap.Reads)
	}
	if got := snap.RCU.Publishes; got != uint64(len(scripts))*mutations {
		t.Errorf("snapshot publishes = %d, want %d (one per descriptor edit)",
			got, len(scripts)*mutations)
	}
	// Every publish retires exactly one predecessor, which must end up
	// recycled, dropped, or still awaiting its grace period.
	if snap.RCU.Recycled+snap.RCU.Dropped+uint64(snap.RCU.Retired) != snap.RCU.Publishes {
		t.Errorf("retired snapshots unaccounted for: %+v", snap.RCU)
	}
	if len(snap.LatencyNs) == 0 {
		t.Error("latency histogram empty")
	}
}

// TestBlockedMutationDoesNotBlockReaders parks a mutation inside its
// critical section — shard mutex held, shard epoch odd — and checks
// the RCU guarantee: decisions proceed without blocking, every one a
// clean snapshot of the state before the stalled edit, in the mutating
// shard and the others alike. That includes a chain of pointer-register
// steps, which consults no shard and so must report epoch 0 rather than
// the live, odd epoch sum. After the mutation completes, a new batch
// pins the published successor and observes the edit.
func TestBlockedMutationDoesNotBlockReaders(t *testing.T) {
	st, err := service.NewStore(service.StoreConfig{}, service.TestSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := service.New(st, service.Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	codeShard := st.ShardOf(1)

	// Hold one mutation open: revoke "code" (segno 1), parked inside
	// the epoch-odd window of its shard with the shard mutex held.
	release := make(chan struct{})
	service.HoldEdits(st, release)
	done := make(chan error, 1)
	go func() { done <- st.Revoke(1) }()
	service.WaitFor(t, "mutation to open", func() bool { return st.ShardVersion(codeShard) == 1 })

	// Model states before and after the revocation.
	probes, probeSegno := service.ShardProbes()
	probes = append(probes, service.Query{Op: service.OpEffRing, Ring: 1,
		Chain: []service.ChainStep{{PR: true, Ring: 3}, {PR: true, Ring: 2}}})
	model := spec.New(st.Shards(), service.TestSegments())
	states := make([][]service.Decision, 2)
	for k := range states {
		if k == 1 {
			if err := model.Revoke(1); err != nil {
				t.Fatalf("model Revoke: %v", err)
			}
		}
		for _, q := range probes {
			states[k] = append(states[k], model.Decide(q))
		}
	}
	// The probe set must discriminate the two states, or the checks
	// below are vacuous.
	differs := false
	for i := range probes {
		a, b := states[0][i], states[1][i]
		a.VersionLo, a.VersionHi, b.VersionLo, b.VersionHi = 0, 0, 0, 0
		differs = differs || a != b
	}
	if !differs {
		t.Fatal("probe set cannot distinguish the bracketed states")
	}

	// With the mutation parked mid-critical-section, a whole batch must
	// complete — lock-free readers never contend with the held shard
	// mutex — and every decision is the pre-edit snapshot at epoch 0.
	ds, err := svc.Submit(context.Background(), probes)
	if err != nil {
		t.Fatalf("Submit during blocked mutation: %v", err)
	}
	for i, d := range ds {
		d.Worker = 0
		if d != states[0][i] {
			t.Errorf("probe %d during blocked mutation: decision %+v, want pre-edit %+v", i, d, states[0][i])
		}
	}
	// The stalled edit also must not block /metrics.
	if got := svc.Snapshot().RCU.Publishes; got != 0 {
		t.Errorf("publishes = %d during blocked mutation, want 0", got)
	}

	// Complete the mutation; the next batch pins the successor snapshot
	// (epoch 2 in the mutated shard) and observes the revocation.
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held mutation: %v", err)
	}
	ds, err = svc.Submit(context.Background(), probes)
	if err != nil {
		t.Fatalf("Submit after mutation: %v", err)
	}
	for i, d := range ds {
		wantEpoch := uint64(0) // the pointer-register chain past probeSegno consults no shard
		if i < len(probeSegno) && probeSegno[i] == 1 {
			wantEpoch = 2
		}
		if d.VersionLo != wantEpoch || d.VersionHi != wantEpoch {
			t.Errorf("probe %d (shard %d): version interval [%d,%d] after mutation, want [%d,%d]",
				i, d.Shard, d.VersionLo, d.VersionHi, wantEpoch, wantEpoch)
		}
		d.Worker = 0
		if d != states[1][i] {
			t.Errorf("probe %d after mutation: decision %+v, want post-edit %+v", i, d, states[1][i])
		}
	}
}
