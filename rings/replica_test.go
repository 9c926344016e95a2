package rings

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/wire"
)

// testReplica is a replica of an 8-shard image with no session behind
// it, holding the empty set a fill starts from: its tables are
// installed by hand.
func testReplica(ttl time.Duration) *replica {
	r := &replica{ttl: ttl, shards: 8, stats: &cacheCounters{}}
	r.set.Store(new(tableSet))
	return r
}

// tablesAt returns a fetch answer holding a one-descriptor table at
// epoch for each of the given shards.
func tablesAt(epoch uint64, shards ...int) *wire.Tables {
	var ts wire.Tables
	for _, i := range shards {
		ts.Tables[i] = service.NewTable(epoch, []core.SDWView{{Present: true, Bound: 16, Read: true}})
	}
	return &ts
}

// served reports whether a batch beginning at now that reads shard i
// decides from r's resident table without fetching it.
func served(r *replica, i int, now time.Duration) bool {
	set := r.set.Load()
	return set != nil && r.stale(set, 1<<i, now) == 0
}

func TestLeaseTTLExpiry(t *testing.T) {
	r := testReplica(time.Millisecond)
	now := monotonic()
	r.install(1, tablesAt(2, 0), now)
	if !served(r, 0, now) {
		t.Fatal("fresh table not served")
	}
	if served(r, 0, now+2*time.Millisecond) {
		t.Error("table served past its TTL")
	}
}

func TestLeaseShootdownFloor(t *testing.T) {
	r := testReplica(time.Hour)
	now := monotonic()
	r.install(0b11, tablesAt(2, 0, 1), now)
	r.shootdown(wire.Shootdown{Shard: 0, Epoch: 4})
	if served(r, 0, now) {
		t.Error("table at epoch 2 served past a shard-0 floor of 4")
	}
	// A replayed older shootdown must not lower the floor.
	r.shootdown(wire.Shootdown{Shard: 0, Epoch: 2})
	if served(r, 0, now) {
		t.Error("replayed epoch-2 shootdown re-enabled the retired table")
	}
	if got := r.stats.shootdowns.Load(); got != 2 {
		t.Errorf("shootdown count = %d, want 2", got)
	}
	// A table at or beyond the floor still serves: shootdowns retire
	// strictly older publications.
	r.install(1, tablesAt(4, 0), now)
	if !served(r, 0, now) {
		t.Error("table at the floor epoch not served")
	}
	// Floors are per shard: shard 1 is untouched.
	if !served(r, 1, now) {
		t.Error("shard-1 table retired by a shard-0 shootdown")
	}
}

// TestLeaseLapseAndGeneration checks that a fetch begun on a session
// whose replica has since lapsed is never installed: the mutations it
// missed will never be announced to any subscription.
func TestLeaseLapseAndGeneration(t *testing.T) {
	r := testReplica(time.Hour)
	now := monotonic()
	r.install(1, tablesAt(2, 0), now)
	r.lapse()
	if r.set.Load() != nil {
		t.Error("lapsed replica kept its tables")
	}
	r.install(1, tablesAt(2, 0), now) // the fetch completes after the lapse
	if r.set.Load() != nil {
		t.Error("a fetch begun before the lapse was installed")
	}
	r.lapse() // the session's close after its lease-expire
	if got := r.stats.flushes.Load(); got != 1 {
		t.Errorf("flushes = %d, want 1 (one lapse, counted once)", got)
	}
}

// TestLeasePutRacingLapseRevive races a table install against a lapse
// and the redial that replaces the lapsed replica: whichever lands
// first, the lapsed replica ends up holding nothing and the revived
// one never sees the table fetched over the dead session.
func TestLeasePutRacingLapseRevive(t *testing.T) {
	for round := 0; round < 200; round++ {
		old := testReplica(time.Hour)
		rc := &RemoteChecker{cache: old.stats}
		rc.rep.Store(old)
		now := monotonic()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			old.install(0xFF, tablesAt(2, 0, 1, 2, 3, 4, 5, 6, 7), now)
		}()
		go func() {
			defer wg.Done()
			old.lapse()
			rc.rep.Store(testReplica(time.Hour)) // what a redial installs
		}()
		wg.Wait()
		if old.set.Load() != nil {
			t.Fatalf("round %d: the lapsed replica still holds tables", round)
		}
		for i := 0; i < 8; i++ {
			if served(rc.rep.Load(), i, now) {
				t.Fatalf("round %d: shard %d's table fetched over the lapsed session is served", round, i)
			}
		}
	}
}

// TestReplicaMissesOnlyConsultedStaleShards checks that a shootdown
// stales only the shard it names, and only for the batches that read
// it: once the shootdown is read, a batch on the other seven shards
// decides every query from the replica and fetches nothing, and the
// next batch misses exactly its queries on the edited shard. Every
// decision equals the server's at the new epoch.
func TestReplicaMissesOnlyConsultedStaleShards(t *testing.T) {
	const shards, edited = 8, 3
	rng := rand.New(rand.NewSource(2))
	segs := seededImage(rng, 64)
	ten, addr := serveTenant(t, segs, shards)
	rc := dialCached(t, addr)

	s := segs[edited]
	if err := ten.Store().SetBrackets(edited, s.Read, !s.Write, s.Execute, s.Brackets, s.Gates); err != nil {
		t.Fatalf("edit: %v", err)
	}
	if _, err := rc.Health(); err != nil { // the server writes the shootdown before the pong
		t.Fatalf("ping: %v", err)
	}
	if got := rc.CacheStats().Shootdowns; got != 1 {
		t.Fatalf("shootdowns read = %d, want 1", got)
	}

	query := func(onEdited bool) Query {
		segno := uint32(rng.Intn(len(segs)))
		for (segno%shards == edited) != onEdited {
			segno = uint32(rng.Intn(len(segs)))
		}
		return Query{Op: OpAccess, Ring: Ring(rng.Intn(8)), Segno: segno,
			Wordno: uint32(rng.Intn(64)), Kind: AccessKind(rng.Intn(3))}
	}
	batch := func(name string, queries []Query, hits, misses uint64) {
		t.Helper()
		before := rc.CacheStats()
		got := make([]Decision, len(queries))
		if err := rc.CheckInto(queries, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := rc.CacheStats()
		if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != hits || m != misses {
			t.Errorf("%s: %d hits and %d misses, want %d and %d", name, h, m, hits, misses)
		}
		want := make([]Decision, len(queries))
		if err := ten.SubmitInto(context.Background(), queries, want); err != nil {
			t.Fatalf("%s: server: %v", name, err)
		}
		for i := range queries {
			got[i].Worker, want[i].Worker = 0, 0
			if got[i] != want[i] {
				t.Errorf("%s: query %d %+v: replica decided %+v, server %+v", name, i, queries[i], got[i], want[i])
			}
		}
	}

	const n, k, m = 24, 5, 11
	others := make([]Query, n)
	for i := range others {
		others[i] = query(false)
	}
	batch("other shards", others, n, 0)
	mixed := make([]Query, 0, k+m)
	for i := 0; i < k+m; i++ {
		mixed = append(mixed, query(i%3 == 1)) // k of the k+m land on the edited shard
	}
	batch("mixed", mixed, m, k)
}
