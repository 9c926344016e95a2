package rings_test

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

// This file proves the client SDW replica (DialRemote with CacheSize)
// against the repo's strongest correctness instrument: the epoch
// oracle. Every decision a cached client serves — from a resident table
// or a freshly fetched one — carries the shard epoch it was decided at,
// and the differential test below compares each one with the spec
// model's answer at that epoch while mutators race the clients. A
// table that outlived a shootdown, or one surviving a reconnect, would
// surface as a decision the model does not give.

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
// concurrent phase, with the round it was served in.
type servedDecision struct {
	round int
	probe int
	dec   rings.Decision
}

// TestDistributedOracleDifferential is the decision-lease acceptance
// test: cached wire clients race a supervisor mutating shard 0 through
// a known script, and every served decision — lease hit or miss — must
// equal the model's answer at the epoch the decision records. Each
// client pings before its racing batch, and the server announces every
// edit it published before its pong, so no decision of round r may be
// older than the 2·r·perRound epoch the earlier rounds' edits reached.
// After each round a quiet step, with no edit in flight, has each
// client decide twice, so the phase is certain to see lease hits. Run
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

	// Concurrent phase: each round, every client pings and then answers
	// the probe batch (from leases where it can) while the mutator walks
	// the script — a round barrier keeps the interleaving adversarial
	// without letting either side starve.
	var mu sync.Mutex
	served := make([][]servedDecision, clients)
	check := func(c, r int) {
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
			served[c] = append(served[c], servedDecision{round: r, probe: p, dec: dst[p]})
		}
		mu.Unlock()
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for c := range rcs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if _, err := rcs[c].Health(); err != nil {
					t.Errorf("client %d round %d: ping: %v", c, r, err)
					return
				}
				check(c, r)
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
		// Quiet step: the second batch decides from a table no edit can
		// have retired, whatever the first one found.
		for c := range rcs {
			check(c, r)
			check(c, r)
		}
	}

	if got := st.ShardVersion(0); got != 2*mutations {
		t.Fatalf("shard 0 epoch = %d, want %d", got, 2*mutations)
	}

	// Replay: every served decision must be one published epoch of
	// shard 0, no older than its round's ping allows, and match the
	// model at that epoch's state.
	var total, hits, shootdowns uint64
	for c, list := range served {
		for _, sd := range list {
			total++
			d := sd.dec
			if d.Shard != 0 || d.VersionLo != d.VersionHi || d.VersionLo%2 != 0 || d.VersionLo > 2*mutations {
				t.Fatalf("client %d probe %d: not one published epoch of shard 0: %+v", c, sd.probe, d)
			}
			if floor := uint64(2 * sd.round * perRound); d.VersionLo < floor {
				t.Fatalf("client %d round %d probe %d: decided at epoch %d, before the %d its ping announced",
					c, sd.round, sd.probe, d.VersionLo, floor)
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

// heldListener hands each accepted connection to its server only after
// release is closed, holding the client's handshake in between;
// accepted reports each connection as it arrives.
type heldListener struct {
	net.Listener
	accepted chan struct{}
	release  chan struct{}
}

func (l heldListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted <- struct{}{}
	<-l.release
	return c, nil
}

// TestCloseDuringRedialClosesNewSession closes a cached client while
// its redial is mid-handshake: the session the redial then installs
// must be closed too, not left open and subscribed.
func TestCloseDuringRedialClosesNewSession(t *testing.T) {
	reg1 := tenant.NewRegistry(tenant.Config{})
	defer reg1.Close()
	if _, err := reg1.Load(tenant.DefaultTenant, checkerImage(), tenant.TenantConfig{Workers: 1}); err != nil {
		t.Fatalf("Load: %v", err)
	}
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
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	ws1.Shutdown(ctx)
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for rc.CacheStats().Flushes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cache never lapsed after server shutdown")
		}
		time.Sleep(time.Millisecond)
	}

	reg2 := tenant.NewRegistry(tenant.Config{})
	defer reg2.Close()
	def2, err := reg2.Load(tenant.DefaultTenant, checkerImage(), tenant.TenantConfig{Workers: 1})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	held := heldListener{Listener: ln2, accepted: make(chan struct{}, 1), release: make(chan struct{})}
	ws2 := wire.NewServer(reg2, wire.Config{})
	go ws2.Serve(held)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws2.Shutdown(ctx)
	}()

	checked := make(chan struct{})
	go func() {
		defer close(checked)
		probe := []rings.Query{{Op: rings.OpAccess, Ring: 4, Segment: "data", Wordno: 1, Kind: rings.AccessRead}}
		_ = rc.CheckInto(probe, make([]rings.Decision, 1)) // redials; its answer does not matter
	}()
	select {
	case <-held.accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the redial never reached the second server")
	}
	rc.Close()
	close(held.release)
	<-checked

	deadline = time.Now().Add(5 * time.Second)
	for def2.SubscriptionStats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriber(s) still on the second server after Close", def2.SubscriptionStats().Subscribers)
		}
		time.Sleep(time.Millisecond)
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

// TestRedialAfterExpireKeepsNewReplica is the regression test for a
// redial that replaces a live session: a lease-expire (the tenant
// evicted, its session left open) lapses the replica, and once the
// tenant is reloaded the next call redials and closes the old session.
// That close must not lapse the new replica, or every later call
// redials again and none is ever a hit.
func TestRedialAfterExpireKeepsNewReplica(t *testing.T) {
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
	if err := fx.reg.Evict(tenant.DefaultTenant); err != nil {
		t.Fatalf("evict: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rc.CacheStats().Expires == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease-expire never processed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := fx.reg.Load(tenant.DefaultTenant, checkerImage(), tenant.TenantConfig{Workers: 1}); err != nil {
		t.Fatalf("reload: %v", err)
	}

	before := rc.CacheStats()
	for i := 0; i < 40; i++ {
		_ = rc.CheckInto(probe, dst) // the first call redials
		time.Sleep(15 * time.Millisecond)
	}
	cs := rc.CacheStats()
	if n := cs.Flushes - before.Flushes; n > 2 {
		t.Errorf("%d flushes over 40 calls: closing the replaced session lapsed the new replica", n)
	}
	if n := cs.Hits - before.Hits; n < 30 {
		t.Errorf("%d hits over 40 calls after the redial, want at least 30 (%+v)", n, cs)
	}
}

// TestReplicaDecidesAnyChain checks that a replica decides effring
// chains of any length, across shards, locally, each decision equal to
// the server's.
func TestReplicaDecidesAnyChain(t *testing.T) {
	fx := startRemoteFixture(t)
	plain, err := rings.DialRemote(fx.wireAddr, rings.RemoteConfig{Transport: "wire"})
	if err != nil {
		t.Fatalf("dial plain: %v", err)
	}
	defer plain.Close()
	cached, err := rings.DialRemote(fx.wireAddr, rings.RemoteConfig{
		Transport: "wire", CacheSize: 64, CacheTTL: time.Hour,
	})
	if err != nil {
		t.Fatalf("dial cached: %v", err)
	}
	defer cached.Close()

	chain := []rings.ChainStep{{Ring: 1, Segno: 0}, {PR: true, Ring: 2}, {Ring: 3, Segno: 1},
		{Ring: 0, Segno: 2}, {PR: true, Ring: 3}, {Ring: 2, Segno: 0}}
	queries := []rings.Query{
		{Op: rings.OpEffRing, Ring: 0, Chain: chain},
		{Op: rings.OpEffRing, Ring: 1, Chain: chain[:5]},
		{Op: rings.OpEffRing, Ring: 0, Chain: []rings.ChainStep{{PR: true, Ring: 4}}},
	}
	want, err := plain.Check(queries...)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	got, err := cached.Check(queries...)
	if err != nil {
		t.Fatalf("cached: %v", err)
	}
	for i := range queries {
		got[i].Worker, want[i].Worker = 0, 0
		if got[i] != want[i] {
			t.Errorf("chain %d: replica decided %+v, server %+v", i, got[i], want[i])
		}
	}
	if cs := cached.CacheStats(); cs.Misses != 0 || cs.Hits != uint64(len(queries)) {
		t.Errorf("chains not decided from the replica: %+v", cs)
	}
}

// stallAfterHandshake serves wire peers on a loopback listener that
// complete the handshake, answer a Subscribe and one Fetch (a 1-shard
// image holding "data"), then read every further frame without
// answering.
func stallAfterHandshake(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	shape := wire.Health{Segments: 1, Shards: 1, Workers: 1}
	var tables wire.Tables
	tables.Tables[0] = service.NewTable(0, []core.SDWView{{Present: true, Bound: 64, Read: true,
		Brackets: rings.Brackets{R1: 2, R2: 4, R3: 4}}})
	tables.Names = []string{"data"}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fetched := false
				hdr := make([]byte, wire.HeaderLen)
				for {
					if _, err := io.ReadFull(conn, hdr); err != nil {
						return
					}
					h, err := wire.ParseHeader(hdr)
					if err != nil {
						return
					}
					if _, err := io.CopyN(io.Discard, conn, int64(h.Len)); err != nil {
						return
					}
					var out []byte
					switch {
					case h.Type == wire.FrameHello:
						out, _ = wire.EncodeWelcome(nil, wire.Welcome{Version: wire.Version, Health: shape})
					case h.Type == wire.FrameSubscribe:
						out = wire.EncodePong(nil, h.Corr, shape)
					case h.Type == wire.FrameFetch && !fetched:
						fetched = true
						out, _ = wire.EncodeTables(nil, h.Corr, &tables)
					default:
						continue // read, never answer
					}
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestWireCallTimeout checks that Timeout bounds every wire call:
// against a peer that reads and never answers, CheckInto returns an
// error within about twice the timeout, on a plain client and on a
// cached one whose expired table sends its batch to fetch.
func TestWireCallTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	addr := stallAfterHandshake(t)
	probe := []rings.Query{{Op: rings.OpAccess, Ring: 4, Segment: "data", Wordno: 1, Kind: rings.AccessRead}}
	for _, tc := range []struct {
		name string
		cfg  rings.RemoteConfig
	}{
		{"plain", rings.RemoteConfig{Transport: "wire", Timeout: timeout}},
		{"cached", rings.RemoteConfig{Transport: "wire", Timeout: timeout, CacheSize: 64, CacheTTL: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc, err := rings.DialRemote(addr, tc.cfg)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer rc.Close()
			time.Sleep(2 * time.Millisecond) // past the cached table's TTL
			start := time.Now()
			if err := rc.CheckInto(probe, make([]rings.Decision, 1)); err == nil {
				t.Fatal("CheckInto against a silent peer succeeded")
			}
			if elapsed := time.Since(start); elapsed > 2*timeout {
				t.Errorf("CheckInto failed after %v, want within %v", elapsed, 2*timeout)
			}
		})
	}
}
