package rings_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

// This file proves the distributed decision-lease cache (DialRemote
// with CacheSize) against the repo's strongest correctness instrument:
// the epoch oracle. Every decision a cached client serves — lease hit
// or remote fetch — carries the shard epoch it was decided at, and the
// differential test below compares each one with the spec model's
// answer at that epoch while mutators race the clients. A cached
// answer that outlived a shootdown, a key collision, or a lease
// surviving a reconnect would all surface as a decision the model does
// not give.

// wideData and narrowData are the two bracket states the mutation
// script alternates "data" (segno 0, shard 0) between. Narrow pushes
// the access brackets below the probe rings, flipping allow to deny.
var (
	wideData   = rings.Brackets{R1: 2, R2: 4, R3: 4}
	narrowData = rings.Brackets{R1: 0, R2: 1, R3: 1}
)

// setData applies step k of the script: odd steps narrow, even steps
// restore the image's wide brackets.
func setData(st interface {
	SetBrackets(uint32, bool, bool, bool, rings.Brackets, uint32) error
}, k int) error {
	b := wideData
	if k%2 == 0 {
		b = narrowData
	}
	return st.SetBrackets(0, true, true, false, b, 0)
}

// leaseProbes is the differential probe batch: every query consults
// only "data" (segno 0), so every decision is explainable by shard 0's
// epoch alone — exactly the single-shard leases the cache serves.
func leaseProbes() []rings.Query {
	eff := rings.Ring(1)
	return []rings.Query{
		{Op: rings.OpAccess, Ring: 1, Segment: "data", Wordno: 0, Kind: rings.AccessRead},
		{Op: rings.OpAccess, Ring: 2, Segment: "data", Wordno: 1, Kind: rings.AccessRead},
		{Op: rings.OpAccess, Ring: 4, Segment: "data", Wordno: 2, Kind: rings.AccessRead},
		{Op: rings.OpAccess, Ring: 5, Segment: "data", Wordno: 3, Kind: rings.AccessRead},
		{Op: rings.OpAccess, Ring: 1, Segment: "data", Wordno: 4, Kind: rings.AccessWrite},
		{Op: rings.OpAccess, Ring: 3, Segment: "data", Wordno: 5, Kind: rings.AccessWrite},
		{Op: rings.OpAccess, Ring: 2, Segment: "data", Wordno: 6, Kind: rings.AccessExecute},
		{Op: rings.OpCall, Ring: 3, Segment: "data", Wordno: 0},
		{Op: rings.OpCall, Ring: 5, Segment: "data", Wordno: 0},
		{Op: rings.OpReturn, Ring: 4, Segment: "data", EffRing: &eff},
		{Op: rings.OpEffRing, Ring: 2, Chain: []rings.ChainStep{{Ring: 5, Segno: 0}}},
		{Op: rings.OpEffRing, Ring: 6, Chain: []rings.ChainStep{{Ring: 1, Segno: 0}, {Ring: 3, Segno: 0}}},
	}
}

// buildLeaseOracle replays the mutation script on the spec model of a
// store with the given shard count: oracle[k][p] is probe p's decision
// after the first k mutations.
func buildLeaseOracle(t *testing.T, probes []rings.Query, mutations, shards int) [][]rings.Decision {
	t.Helper()
	model := spec.New(shards, checkerImage())
	oracle := make([][]rings.Decision, mutations+1)
	for k := 0; k <= mutations; k++ {
		if k > 0 {
			if err := setData(model, k-1); err != nil {
				t.Fatalf("model mutation %d: %v", k, err)
			}
		}
		for _, q := range probes {
			oracle[k] = append(oracle[k], model.Decide(q))
		}
	}
	return oracle
}

// servedDecision is one answer a cached client returned during the
// concurrent phase, with the interval it claimed.
type servedDecision struct {
	probe int
	dec   rings.Decision
}

// TestDistributedOracleDifferential is the decision-lease acceptance
// test: cached wire clients race a supervisor mutating shard 0 through
// a known script, and every served decision — lease hit or miss — must
// equal the model's answer at the epoch the decision records. Run
// under -race in CI.
func TestDistributedOracleDifferential(t *testing.T) {
	const (
		clients   = 3
		rounds    = 20
		perRound  = 2
		mutations = rounds * perRound
	)
	fx := startRemoteFixture(t)
	probes := leaseProbes()
	st := fx.def.Store()
	oracle := buildLeaseOracle(t, probes, mutations, st.Shards())

	rcs := make([]*rings.RemoteChecker, clients)
	for c := range rcs {
		rc, err := rings.DialRemote(fx.wireAddr, rings.RemoteConfig{
			Transport: "wire",
			CacheSize: 4096,
			CacheTTL:  time.Hour,
		})
		if err != nil {
			t.Fatalf("dial client %d: %v", c, err)
		}
		defer rc.Close()
		rcs[c] = rc
	}

	// Concurrent phase: each round, every client answers the probe
	// batch (from leases where it can) while the mutator walks the
	// script — a round barrier keeps the interleaving adversarial
	// without letting either side starve.
	var mu sync.Mutex
	served := make([][]servedDecision, clients)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for c := range rcs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				dst := make([]rings.Decision, len(probes))
				if err := rcs[c].CheckInto(probes, dst); err != nil {
					if errors.Is(err, rings.ErrQueueFull) {
						return // backpressure is a legal answer
					}
					t.Errorf("client %d round %d: %v", c, r, err)
					return
				}
				mu.Lock()
				for p := range dst {
					served[c] = append(served[c], servedDecision{probe: p, dec: dst[p]})
				}
				mu.Unlock()
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perRound; i++ {
				if err := setData(st, r*perRound+i); err != nil {
					t.Errorf("mutate round %d: %v", r, err)
				}
			}
		}()
		wg.Wait()
	}

	if got := st.ShardVersion(0); got != 2*mutations {
		t.Fatalf("shard 0 epoch = %d, want %d", got, 2*mutations)
	}

	// Replay: every served decision must be one published epoch of
	// shard 0 and match the model at that epoch's state.
	var total, hits, shootdowns uint64
	for c, list := range served {
		for _, sd := range list {
			total++
			d := sd.dec
			if d.Shard != 0 || d.VersionLo != d.VersionHi || d.VersionLo%2 != 0 || d.VersionLo > 2*mutations {
				t.Fatalf("client %d probe %d: not one published epoch of shard 0: %+v", c, sd.probe, d)
			}
			d.Worker = 0
			if want := oracle[d.VersionLo/2][sd.probe]; d != want {
				t.Fatalf("client %d probe %d: decision %+v, model says %+v", c, sd.probe, d, want)
			}
		}
	}
	for c, rc := range rcs {
		cs := rc.CacheStats()
		hits += cs.Hits
		shootdowns += cs.Shootdowns
		if cs.Hits+cs.Misses == 0 {
			t.Errorf("client %d never consulted its cache", c)
		}
	}
	if total == 0 {
		t.Fatal("no decisions served")
	}
	if hits == 0 {
		t.Error("no lease hits across the whole phase — the cache never engaged")
	}
	if shootdowns == 0 {
		t.Error("no shootdowns received — the invalidation stream never engaged")
	}
	t.Logf("replayed %d decisions: %d lease hits, %d shootdowns", total, hits, shootdowns)
}

// TestShootdownOrdering checks the no-stale-after-acknowledge
// property in isolation: once a client has processed a shootdown (its
// counter moved, so the floor is in place), the very next lookup
// misses the retired lease and fetches the post-mutation answer.
func TestShootdownOrdering(t *testing.T) {
	fx := startRemoteFixture(t)
	rc, err := rings.DialRemote(fx.wireAddr, rings.RemoteConfig{
		Transport: "wire", CacheSize: 64, CacheTTL: time.Hour,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()

	probe := []rings.Query{{Op: rings.OpAccess, Ring: 4, Segment: "data", Wordno: 1, Kind: rings.AccessRead}}
	dst := make([]rings.Decision, 1)
	if err := rc.CheckInto(probe, dst); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !dst[0].Allowed {
		t.Fatalf("warm decision denied: %+v", dst[0])
	}
	if err := rc.CheckInto(probe, dst); err != nil {
		t.Fatalf("hit: %v", err)
	}
	if rc.CacheStats().Hits == 0 {
		t.Fatal("second lookup was not a lease hit")
	}

	if err := setData(fx.def.Store(), 0); err != nil { // narrow: ring 4 read now denied
		t.Fatalf("mutate: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rc.CacheStats().Shootdowns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shootdown never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	// The shootdown counter moved, so its floor is already in place:
	// this lookup must not serve the retired allow.
	missesBefore := rc.CacheStats().Misses
	if err := rc.CheckInto(probe, dst); err != nil {
		t.Fatalf("post-shootdown check: %v", err)
	}
	if dst[0].Allowed {
		t.Fatalf("stale allow served after acknowledged shootdown: %+v", dst[0])
	}
	if rc.CacheStats().Misses == missesBefore {
		t.Error("post-shootdown lookup did not re-fetch")
	}
	// And the refreshed deny is itself leased.
	hitsBefore := rc.CacheStats().Hits
	if err := rc.CheckInto(probe, dst); err != nil {
		t.Fatalf("re-hit: %v", err)
	}
	if dst[0].Allowed || rc.CacheStats().Hits == hitsBefore {
		t.Errorf("refreshed lease not served: %+v (hits %d)", dst[0], rc.CacheStats().Hits)
	}
}

// TestLeaseTTLBoundsStaleness checks the wall-clock fallback: with no
// shootdown at all, a lease older than the TTL is re-fetched rather
// than served forever.
func TestLeaseTTLBoundsStaleness(t *testing.T) {
	fx := startRemoteFixture(t)
	rc, err := rings.DialRemote(fx.wireAddr, rings.RemoteConfig{
		Transport: "wire", CacheSize: 64, CacheTTL: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()

	probe := []rings.Query{{Op: rings.OpAccess, Ring: 4, Segment: "data", Wordno: 1, Kind: rings.AccessRead}}
	dst := make([]rings.Decision, 1)
	for i := 0; i < 2; i++ {
		if err := rc.CheckInto(probe, dst); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	if rc.CacheStats().Hits == 0 {
		t.Fatal("lease never served inside the TTL")
	}
	time.Sleep(60 * time.Millisecond)
	missesBefore := rc.CacheStats().Misses
	if err := rc.CheckInto(probe, dst); err != nil {
		t.Fatalf("post-TTL check: %v", err)
	}
	if rc.CacheStats().Misses == missesBefore {
		t.Error("lease served past its TTL")
	}
}

// TestLeaseFailClosedOnDrop checks the hard-drop rule: when the
// session dies with the tenant (evict sends LeaseExpire, then the
// stream ends), the whole cache is dropped and lookups fail closed —
// an error, never a cached answer.
func TestLeaseFailClosedOnDrop(t *testing.T) {
	fx := startRemoteFixture(t)
	rc, err := rings.DialRemote(fx.wireAddr, rings.RemoteConfig{
		Transport: "wire", CacheSize: 64, CacheTTL: time.Hour,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()

	probe := []rings.Query{{Op: rings.OpAccess, Ring: 4, Segment: "data", Wordno: 1, Kind: rings.AccessRead}}
	dst := make([]rings.Decision, 1)
	for i := 0; i < 2; i++ {
		if err := rc.CheckInto(probe, dst); err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
	}
	hitsBefore := rc.CacheStats().Hits
	if hitsBefore == 0 {
		t.Fatal("cache never engaged before the drop")
	}

	if err := fx.reg.Evict(tenant.DefaultTenant); err != nil {
		t.Fatalf("evict: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rc.CacheStats().Expires == 0 && rc.CacheStats().Flushes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease-expire never processed")
		}
		time.Sleep(time.Millisecond)
	}

	if err := rc.CheckInto(probe, dst); err == nil {
		t.Fatal("lookup succeeded against an evicted tenant — a cached answer leaked")
	}
	if got := rc.CacheStats().Hits; got != hitsBefore {
		t.Errorf("hits moved %d -> %d after the drop", hitsBefore, got)
	}
	if rc.CacheStats().Flushes == 0 {
		t.Error("cache was not flushed on drop")
	}
}

// TestLeaseReconnectResubscribes checks recovery: after the server
// goes away mid-session, a cached client lapses (every lookup fails),
// and once a server is back on the same address it redials,
// resubscribes, starts from an empty cache, and serves the *new*
// server's answers.
func TestLeaseReconnectResubscribes(t *testing.T) {
	mk := func() (*tenant.Registry, *tenant.Tenant) {
		reg := tenant.NewRegistry(tenant.Config{MaxTenants: 4, WorkerBudget: 8})
		def, err := reg.Load(tenant.DefaultTenant, checkerImage(), tenant.TenantConfig{Workers: 1})
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		return reg, def
	}
	reg1, _ := mk()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln1.Addr().String()
	ws1 := wire.NewServer(reg1, wire.Config{})
	go ws1.Serve(ln1)

	rc, err := rings.DialRemote(addr, rings.RemoteConfig{
		Transport: "wire", CacheSize: 64, CacheTTL: time.Hour,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()

	probe := []rings.Query{{Op: rings.OpAccess, Ring: 4, Segment: "data", Wordno: 1, Kind: rings.AccessRead}}
	dst := make([]rings.Decision, 1)
	for i := 0; i < 2; i++ {
		if err := rc.CheckInto(probe, dst); err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
	}
	if !dst[0].Allowed {
		t.Fatalf("pre-drop decision denied: %+v", dst[0])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	ws1.Shutdown(ctx)
	cancel()
	// Until the client processes the GoAway the old lease may still be
	// served (staleness bounded by the TTL); the hard-drop guarantee
	// begins at the lapse, so wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for rc.CacheStats().Flushes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cache never lapsed after server shutdown")
		}
		time.Sleep(time.Millisecond)
	}

	// Second server on the same address, same image but already
	// narrowed: the reconnected client must see the deny, proving no
	// lease survived the reconnect.
	reg2, def2 := mk()
	if err := setData(def2.Store(), 0); err != nil {
		t.Fatalf("narrow second server: %v", err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	ws2 := wire.NewServer(reg2, wire.Config{})
	go ws2.Serve(ln2)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws2.Shutdown(ctx)
	}()

	deadline = time.Now().Add(5 * time.Second)
	for {
		err := rc.CheckInto(probe, dst)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dst[0].Allowed {
		t.Fatalf("pre-drop lease served after reconnect: %+v", dst[0])
	}
	if rc.CacheStats().Flushes < 2 {
		t.Errorf("flushes = %d, want >= 2 (lapse + revive)", rc.CacheStats().Flushes)
	}
	// The revived cache leases again.
	hitsBefore := rc.CacheStats().Hits
	if err := rc.CheckInto(probe, dst); err != nil {
		t.Fatalf("post-recovery hit: %v", err)
	}
	if rc.CacheStats().Hits == hitsBefore {
		t.Error("revived cache never served a lease")
	}
}

// TestRemoteCacheHitZeroAlloc is the alloc gate for the lease hit
// path: a warm all-hit batch completes without a single allocation.
// CI runs it by name alongside the other zero-alloc gates.
func TestRemoteCacheHitZeroAlloc(t *testing.T) {
	fx := startRemoteFixture(t)
	rc, err := rings.DialRemote(fx.wireAddr, rings.RemoteConfig{
		Transport: "wire", CacheSize: 256, CacheTTL: time.Hour,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()

	queries := make([]rings.Query, 16)
	for i := range queries {
		queries[i] = rings.Query{Op: rings.OpAccess, Ring: 4, Segment: "data",
			Wordno: uint32(i), Kind: rings.AccessRead}
	}
	dst := make([]rings.Decision, len(queries))
	if err := rc.CheckInto(queries, dst); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := rc.CheckInto(queries, dst); err != nil {
			t.Fatalf("hit batch: %v", err)
		}
	}); avg != 0 {
		t.Errorf("lease hit path allocates %.1f times per batch, want 0", avg)
	}
	cs := rc.CacheStats()
	if cs.Misses > uint64(len(queries)) {
		t.Errorf("warm batch still missing: %+v", cs)
	}
}

// TestDialRemoteHTTPRejectsCache checks the configuration guard: the
// HTTP transport has no shootdown stream, so a cache there could never
// be kept coherent and the dial must refuse it.
func TestDialRemoteHTTPRejectsCache(t *testing.T) {
	fx := startRemoteFixture(t)
	if _, err := rings.DialRemote(fx.httpURL, rings.RemoteConfig{
		Transport: "http", CacheSize: 64,
	}); err == nil {
		t.Fatal("HTTP dial with CacheSize succeeded")
	}
}
