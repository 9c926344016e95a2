package rings

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// leaseFixture is a warm cache holding one allowed read lease at shard
// 0, epoch 2, plus the query and key that reach it.
func leaseFixture(ttl time.Duration) (*leaseCache, Query, leaseKey, int64) {
	lc := newLeaseCache(8, ttl)
	q := Query{Op: OpAccess, Ring: 4, Segno: 0, Wordno: 7, Kind: AccessRead}
	k, ok := leaseKeyOf(&q)
	if !ok {
		panic("fixture query not cacheable")
	}
	now := time.Now().UnixNano()
	lc.put(k, Decision{Allowed: true, Shard: 0, VersionLo: 2, VersionHi: 2}, now, lc.gen.Load())
	return lc, q, k, now
}

// hit reports whether the cache serves q at time now.
func hit(lc *leaseCache, q Query, now int64) bool {
	dst := make([]Decision, 1)
	return len(lc.serveHits([]Query{q}, dst, now, true, nil)) == 0
}

func TestLeaseKeyOfEdges(t *testing.T) {
	eff := Ring(3)
	longChain := make([]ChainStep, maxLeaseChain+1)
	uncacheable := []Query{
		{Op: "sideload", Ring: 1},                      // unknown op
		{Op: OpAccess, Ring: 1, Kind: AccessKind(99)},  // invalid kind
		{Op: OpAccess, Ring: 1, Kind: AccessKind(256)}, // would alias AccessRead if truncated
		{Op: OpEffRing, Ring: 1, Chain: longChain},     // chain too long
	}
	for _, q := range uncacheable {
		if _, ok := leaseKeyOf(&q); ok {
			t.Errorf("query %+v cacheable, want rejected", q)
		}
	}

	// Fields an op ignores are canonicalized: two return queries that
	// differ only in Kind share one lease.
	a := Query{Op: OpReturn, Ring: 2, Segno: 1, Kind: AccessRead}
	b := Query{Op: OpReturn, Ring: 2, Segno: 1, Kind: AccessWrite}
	ka, _ := leaseKeyOf(&a)
	kb, _ := leaseKeyOf(&b)
	if ka != kb {
		t.Error("return keys differ on ignored Kind")
	}

	// But fields the decision reads must separate keys.
	distinct := []Query{
		{Op: OpAccess, Ring: 2, Segno: 1, Kind: AccessRead},
		{Op: OpAccess, Ring: 2, Segno: 1, Kind: AccessWrite},
		{Op: OpAccess, Ring: 3, Segno: 1, Kind: AccessRead},
		{Op: OpCall, Ring: 2, Segno: 1},
		{Op: OpCall, Ring: 2, Segno: 1, SameSegment: true},
		{Op: OpCall, Ring: 2, Segno: 1, SameSegment: true, EffRing: &eff},
		{Op: OpReturn, Ring: 2, Segno: 1},
		{Op: OpEffRing, Ring: 2, Chain: []ChainStep{{Ring: 1, Segno: 1}}},
		{Op: OpEffRing, Ring: 2, Chain: []ChainStep{{PR: true, Ring: 1, Segno: 1}}},
		{Op: OpAccess, Ring: 2, Segment: "data", Kind: AccessRead},
	}
	seen := make(map[leaseKey]int)
	for i := range distinct {
		k, ok := leaseKeyOf(&distinct[i])
		if !ok {
			t.Fatalf("query %d not cacheable", i)
		}
		if j, dup := seen[k]; dup {
			t.Errorf("queries %d and %d collide: %+v", j, i, k)
		}
		seen[k] = i
	}
}

func TestLeaseTTLExpiry(t *testing.T) {
	lc, q, _, now := leaseFixture(time.Millisecond)
	if !hit(lc, q, now) {
		t.Fatal("fresh lease missed")
	}
	if hit(lc, q, now+int64(2*time.Millisecond)) {
		t.Error("expired lease served")
	}
}

func TestLeaseShootdownFloor(t *testing.T) {
	lc, q, _, now := leaseFixture(time.Hour)
	lc.shootdown(wire.Shootdown{Shard: 0, Epoch: 4})
	if hit(lc, q, now) {
		t.Error("lease at epoch 2 served past a shard-0 floor of 4")
	}
	// A replayed older shootdown must not lower the floor.
	lc.shootdown(wire.Shootdown{Shard: 0, Epoch: 2})
	if hit(lc, q, now) {
		t.Error("replayed epoch-2 shootdown re-enabled the retired lease")
	}
	if got := lc.stats().Shootdowns; got != 2 {
		t.Errorf("shootdown count = %d, want 2", got)
	}
	// A lease at or beyond the floor still serves: shootdowns retire
	// strictly older publications.
	lc.put(mustKey(t, q), Decision{Allowed: true, Shard: 0, VersionLo: 4, VersionHi: 4}, now, lc.gen.Load())
	if !hit(lc, q, now) {
		t.Error("lease at the floor epoch missed")
	}
	// Floors are per shard: shard 1 is untouched.
	q2 := Query{Op: OpAccess, Ring: 4, Segno: 1, Kind: AccessRead}
	lc.put(mustKey(t, q2), Decision{Allowed: true, Shard: 1, VersionLo: 2, VersionHi: 2}, now, lc.gen.Load())
	if !hit(lc, q2, now) {
		t.Error("shard-1 lease retired by shard-0 shootdown")
	}
}

func TestLeaseLapseAndGeneration(t *testing.T) {
	lc, q, k, now := leaseFixture(time.Hour)
	genBefore := lc.gen.Load()
	lc.lapse()
	if hit(lc, q, now) {
		t.Error("lapsed cache served a lease")
	}
	// An insert whose fetch began before the lapse must be refused:
	// the mutations it missed were never announced to any subscription.
	lc.put(k, Decision{Allowed: true, Shard: 0, VersionLo: 2, VersionHi: 2}, now, genBefore)
	lc.revive()
	if hit(lc, q, now) {
		t.Error("stale-generation insert survived into the revived cache")
	}
	// A current-generation insert works again after revive.
	lc.put(k, Decision{Allowed: true, Shard: 0, VersionLo: 2, VersionHi: 2}, now, lc.gen.Load())
	if !hit(lc, q, now) {
		t.Error("post-revive insert missed")
	}
	if lc.stats().Flushes < 2 {
		t.Errorf("flushes = %d, want >= 2 (lapse + revive)", lc.stats().Flushes)
	}
}

// TestLeasePutRacingLapseRevive parks a put on the cache lock, with the
// generation it fetched under, while a lapse and a revive land: the
// decision came over the dead session, so the revived cache must not
// serve it.
func TestLeasePutRacingLapseRevive(t *testing.T) {
	lc := newLeaseCache(8, time.Hour)
	q := Query{Op: OpAccess, Ring: 4, Segno: 0, Wordno: 7, Kind: AccessRead}
	k := mustKey(t, q)
	now := time.Now().UnixNano()
	gen := lc.gen.Load()

	lc.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		lc.put(k, Decision{Allowed: true, Shard: 0, VersionLo: 2, VersionHi: 2}, now, gen)
	}()
	waitParkedOnLock(t, "(*leaseCache).put")
	// lapse() then revive(), their flushes applied under the lock this
	// test already holds.
	lc.lapsed.Store(true)
	lc.gen.Add(1)
	lc.entries = make(map[leaseKey]*lease, lc.cap)
	lc.gen.Add(1)
	lc.lapsed.Store(false)
	lc.mu.Unlock()
	<-done
	if hit(lc, q, now) {
		t.Error("revived cache serves a decision fetched over the dead session")
	}
}

// waitParkedOnLock waits until a goroutine whose stack shows fn is
// blocked taking a sync.RWMutex write lock.
func waitParkedOnLock(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, fn) && strings.Contains(g, "sync.(*RWMutex).Lock") {
				return
			}
		}
	}
	t.Fatalf("no goroutine in %s parked on its lock", fn)
}

func TestLeasePutRejectsUnshardable(t *testing.T) {
	lc, q, k, now := leaseFixture(time.Hour)
	lc.flush()
	gen := lc.gen.Load()
	lc.put(k, Decision{Err: "queue full", Shard: 0}, now, gen)
	lc.put(k, Decision{Allowed: true, Shard: -1, VersionLo: 2, VersionHi: 4}, now, gen)
	if hit(lc, q, now) {
		t.Error("error or multi-shard decision was cached")
	}
}

func TestLeaseEvictionBoundsSize(t *testing.T) {
	lc := newLeaseCache(4, time.Hour)
	now := time.Now().UnixNano()
	gen := lc.gen.Load()
	for i := 0; i < 32; i++ {
		q := Query{Op: OpAccess, Ring: 4, Segno: uint32(i), Kind: AccessRead}
		lc.put(mustKey(t, q), Decision{Allowed: true, Shard: 0, VersionLo: 2, VersionHi: 2}, now, gen)
	}
	if s := lc.stats().Size; s > 4 {
		t.Errorf("cache size %d exceeds cap 4", s)
	}
	// Replacing an existing key does not evict.
	lc2 := newLeaseCache(1, time.Hour)
	q := Query{Op: OpAccess, Ring: 4, Segno: 0, Kind: AccessRead}
	k := mustKey(t, q)
	lc2.put(k, Decision{Allowed: true, Shard: 0, VersionLo: 2, VersionHi: 2}, now, lc2.gen.Load())
	lc2.put(k, Decision{Allowed: false, Shard: 0, VersionLo: 4, VersionHi: 4}, now, lc2.gen.Load())
	dst := make([]Decision, 1)
	if m := lc2.serveHits([]Query{q}, dst, now, true, nil); len(m) != 0 {
		t.Fatal("replaced lease missed")
	}
	if dst[0].Allowed || dst[0].VersionLo != 4 {
		t.Errorf("replacement did not take: %+v", dst[0])
	}
}

func mustKey(t *testing.T, q Query) leaseKey {
	t.Helper()
	k, ok := leaseKeyOf(&q)
	if !ok {
		t.Fatalf("query %+v not cacheable", q)
	}
	return k
}
