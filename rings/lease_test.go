package rings

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/wire"
)

// testReplica is a replica of an 8-shard image with no session behind
// it: its tables are installed by hand.
func testReplica(ttl time.Duration) *replica {
	return &replica{ttl: ttl, shards: 8, stats: &cacheCounters{}}
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

func TestLeaseTTLExpiry(t *testing.T) {
	r := testReplica(time.Millisecond)
	now := time.Now().UnixNano()
	r.install(1, tablesAt(2, 0), now)
	if r.fresh(0, now) == nil {
		t.Fatal("fresh table not served")
	}
	if r.fresh(0, now+int64(2*time.Millisecond)) != nil {
		t.Error("table served past its TTL")
	}
}

func TestLeaseShootdownFloor(t *testing.T) {
	r := testReplica(time.Hour)
	now := time.Now().UnixNano()
	r.install(0b11, tablesAt(2, 0, 1), now)
	r.shootdown(wire.Shootdown{Shard: 0, Epoch: 4})
	if r.fresh(0, now) != nil {
		t.Error("table at epoch 2 served past a shard-0 floor of 4")
	}
	// A replayed older shootdown must not lower the floor.
	r.shootdown(wire.Shootdown{Shard: 0, Epoch: 2})
	if r.fresh(0, now) != nil {
		t.Error("replayed epoch-2 shootdown re-enabled the retired table")
	}
	if got := r.stats.shootdowns.Load(); got != 2 {
		t.Errorf("shootdown count = %d, want 2", got)
	}
	// A table at or beyond the floor still serves: shootdowns retire
	// strictly older publications.
	r.install(1, tablesAt(4, 0), now)
	if r.fresh(0, now) == nil {
		t.Error("table at the floor epoch not served")
	}
	// Floors are per shard: shard 1 is untouched.
	if r.fresh(1, now) == nil {
		t.Error("shard-1 table retired by a shard-0 shootdown")
	}
}

// TestLeaseLapseAndGeneration checks that a fetch begun on a session
// whose replica has since lapsed is never installed: the mutations it
// missed will never be announced to any subscription.
func TestLeaseLapseAndGeneration(t *testing.T) {
	r := testReplica(time.Hour)
	now := time.Now().UnixNano()
	r.install(1, tablesAt(2, 0), now)
	r.lapse()
	if r.fresh(0, now) != nil {
		t.Error("lapsed replica kept a table")
	}
	r.install(1, tablesAt(2, 0), now) // the fetch completes after the lapse
	if r.fresh(0, now) != nil {
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
		now := time.Now().UnixNano()
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
		for i := 0; i < 8; i++ {
			if old.fresh(i, now) != nil || rc.rep.Load().fresh(i, now) != nil {
				t.Fatalf("round %d: shard %d's table fetched over the lapsed session is still served", round, i)
			}
		}
	}
}
