package wire

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tenant"
)

// TestSubscribeShootdownStream checks the invalidation feed end to
// end: a subscribed client receives a Shootdown push for the mutated
// shard with even, strictly increasing epochs, and the stream
// eventually names the shard's final publication epoch. Coalescing may
// skip intermediate epochs — a later epoch subsumes an earlier one —
// but may never reorder or invent them.
func TestSubscribeShootdownStream(t *testing.T) {
	const mutations = 8
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})

	pushes := make(chan Shootdown, 64)
	c, err := Dial(addr, ClientConfig{
		OnShootdown: func(sd Shootdown) { pushes <- sd },
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	h, err := c.Subscribe()
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if h.StoreVersion != 0 {
		t.Errorf("subscription starting epoch sum = %d, want 0", h.StoreVersion)
	}

	for i := 0; i < mutations; i++ {
		b := core.Brackets{R1: 2, R2: 4, R3: 4}
		if i%2 == 0 {
			b = core.Brackets{R1: 0, R2: 1, R3: 1}
		}
		if _, err := c.Mutate(Mutation{Op: MutSetBrackets, Segment: "data",
			Read: true, Write: true, Brackets: b}); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}

	// "data" is segno 0, shard 0: after K mutations its epoch is 2K.
	var got []Shootdown
	deadline := time.After(5 * time.Second)
	for {
		var sd Shootdown
		select {
		case sd = <-pushes:
		case <-deadline:
			t.Fatalf("final shootdown never arrived; got %v", got)
		}
		if sd.Shard != 0 || sd.Segno != 0 {
			t.Fatalf("shootdown names shard %d segno %d, want 0/0", sd.Shard, sd.Segno)
		}
		if sd.Epoch%2 != 0 || sd.Epoch == 0 || sd.Epoch > 2*mutations {
			t.Fatalf("impossible shootdown epoch %d", sd.Epoch)
		}
		if len(got) > 0 && sd.Epoch <= got[len(got)-1].Epoch {
			t.Fatalf("shootdown epochs not increasing: %v then %d", got, sd.Epoch)
		}
		got = append(got, sd)
		if sd.Epoch == 2*mutations {
			break
		}
	}

	// Subscribe is idempotent: a re-subscribe re-acks on the same
	// stream, and the next mutation is still announced exactly once.
	if _, err := c.Subscribe(); err != nil {
		t.Fatalf("re-subscribe: %v", err)
	}
	if _, err := c.Mutate(Mutation{Op: MutRevoke, Segment: "data"}); err != nil {
		t.Fatalf("mutate after re-subscribe: %v", err)
	}
	select {
	case sd := <-pushes:
		if sd.Epoch != 2*mutations+2 {
			t.Errorf("post-resubscribe shootdown epoch = %d, want %d", sd.Epoch, 2*mutations+2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no shootdown after re-subscribe")
	}
	select {
	case sd := <-pushes:
		t.Errorf("duplicate shootdown after re-subscribe: %+v", sd)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestSubscribeRejectsPayload checks a Subscribe frame carrying bytes
// is a protocol error that closes the session.
func TestSubscribeRejectsPayload(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	conn := dialRaw(t, addr)

	b := make([]byte, HeaderLen+1)
	PutHeader(b, Header{Len: 1, Type: FrameSubscribe, Corr: 7})
	if _, err := conn.Write(b); err != nil {
		t.Fatalf("write: %v", err)
	}
	h, payload, err := readConnFrame(t, conn)
	if err != nil {
		t.Fatalf("read error frame: %v", err)
	}
	if h.Type != FrameError {
		t.Fatalf("answered %v, want error", h.Type)
	}
	if e, derr := decodeError(payload); derr != nil || e.Code != CodeBadRequest {
		t.Errorf("error frame = %+v, %v", e, derr)
	}
	if _, _, err := readConnFrame(t, conn); err == nil {
		t.Error("session stayed open after malformed subscribe")
	}
}

// TestLeaseExpireOnEvict checks draining a tenant revokes its
// sessions' subscriptions: the pusher sends one LeaseExpire with the
// unavailable code and no shootdown follows it.
func TestLeaseExpireOnEvict(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})

	expires := make(chan LeaseExpire, 4)
	pushes := make(chan Shootdown, 4)
	c, err := Dial(addr, ClientConfig{
		OnShootdown:   func(sd Shootdown) { pushes <- sd },
		OnLeaseExpire: func(le LeaseExpire) { expires <- le },
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Subscribe(); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	if err := reg.Evict(tenant.DefaultTenant); err != nil {
		t.Fatalf("evict: %v", err)
	}
	select {
	case le := <-expires:
		if le.Code != CodeUnavailable {
			t.Errorf("lease-expire code = %d, want %d", le.Code, CodeUnavailable)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no lease-expire after evict")
	}
	select {
	case sd := <-pushes:
		t.Errorf("shootdown after lease-expire: %+v", sd)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestSubscribedSessionGoAwayLast extends the GoAway-last invariant to
// subscribed sessions: during a graceful drain the shootdown pusher is
// joined first, so the byte stream is pushes and responses, then
// exactly one GoAway, then EOF — never a push after the GoAway.
func TestSubscribedSessionGoAwayLast(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	srv, addr := startWireServer(t, reg, Config{})
	conn := dialRaw(t, addr)

	sub := make([]byte, 0, HeaderLen)
	if _, err := conn.Write(EncodeSubscribe(sub, 1)); err != nil {
		t.Fatalf("write subscribe: %v", err)
	}
	if h, _, err := readConnFrame(t, conn); err != nil || h.Type != FramePong {
		t.Fatalf("subscribe ack = %v, %v", h.Type, err)
	}

	// A second session mutates so the subscribed one has pushes in
	// flight when the drain begins.
	mut, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial mutator: %v", err)
	}
	defer mut.Close()
	for i := 0; i < 4; i++ {
		if _, err := mut.Mutate(Mutation{Op: MutSetBrackets, Segment: "data",
			Read: true, Write: true, Brackets: core.Brackets{R1: 0, R2: 1, R3: 1}}); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
	time.Sleep(100 * time.Millisecond) // let the pusher flush

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	sawGoAway := false
	shootdowns := 0
	var rbuf []byte
	for {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		h, _, err := readFrame(conn, &rbuf, DefaultMaxFrame)
		if err != nil {
			break
		}
		if sawGoAway {
			t.Fatalf("frame %v after goaway", h.Type)
		}
		switch h.Type {
		case FrameShootdown:
			shootdowns++
		case FrameGoAway:
			sawGoAway = true
		default:
			t.Fatalf("unexpected frame %v during drain", h.Type)
		}
	}
	if !sawGoAway {
		t.Error("drain ended without goaway")
	}
	if shootdowns == 0 {
		t.Error("no shootdown observed before goaway")
	}
	if err := <-done; err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestSubscribePushDecodesStrictly checks the client tears the session
// down on a malformed push rather than dispatching it: a shootdown
// whose epoch is odd can never name a published snapshot.
func TestSubscribePushDecodesStrictly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var rbuf []byte
		if h, _, err := readFrame(conn, &rbuf, DefaultMaxFrame); err != nil || h.Type != FrameHello {
			return
		}
		w, _ := EncodeWelcome(nil, Welcome{Version: Version,
			Health: Health{Segments: 1, Shards: 1, Workers: 1}})
		if _, err := conn.Write(w); err != nil {
			return
		}
		// An odd epoch: structurally well-framed, semantically impossible.
		b := make([]byte, HeaderLen+16)
		PutHeader(b, Header{Len: 16, Type: FrameShootdown})
		b[HeaderLen+15] = 3
		_, _ = conn.Write(b)
		// Hold the conn open; the client must hang up on its own.
		var buf [1]byte
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, _ = conn.Read(buf[:])
	}()

	closed := make(chan error, 1)
	c, err := Dial(ln.Addr().String(), ClientConfig{
		OnShootdown: func(sd Shootdown) { t.Errorf("malformed push dispatched: %+v", sd) },
		OnClose:     func(err error) { closed <- err },
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("client kept session after malformed push")
	}
	if _, err := c.Ping(); err == nil {
		t.Error("session usable after malformed push")
	}
}

// TestSubscribeStartingEpochCoversGap checks the no-gap guarantee the
// ack's StoreVersion advertises: a mutation racing the subscribe is
// either reflected in the ack's epoch sum or announced by a shootdown,
// never silently lost.
func TestSubscribeStartingEpochCoversGap(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})

	pushes := make(chan Shootdown, 16)
	c, err := Dial(addr, ClientConfig{
		OnShootdown: func(sd Shootdown) { pushes <- sd },
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Mutate before subscribing: the ack must carry the bumped epoch
	// sum, telling the cache nothing older than it is announced.
	tnt, _ := reg.Get(tenant.DefaultTenant)
	if err := tnt.Store().SetBrackets(0, true, true, false,
		core.Brackets{R1: 0, R2: 1, R3: 1}, 0); err != nil {
		t.Fatalf("pre-subscribe mutate: %v", err)
	}
	h, err := c.Subscribe()
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if h.StoreVersion != 2 {
		t.Errorf("ack epoch sum = %d, want 2 (pre-subscribe mutation visible)", h.StoreVersion)
	}

	// And one after: announced.
	if err := tnt.Store().SetBrackets(0, true, true, false,
		core.Brackets{R1: 2, R2: 4, R3: 4}, 0); err != nil {
		t.Fatalf("post-subscribe mutate: %v", err)
	}
	select {
	case sd := <-pushes:
		if sd.Epoch != 4 {
			t.Errorf("post-subscribe shootdown epoch = %d, want 4", sd.Epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-subscribe mutation never announced")
	}
}

// TestFetchTables checks the replication pair end to end: a fetch
// answers each named shard's current published table at its even
// epoch, the image's names when asked, and nothing it was not asked
// for.
func TestFetchTables(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Mutate(Mutation{Op: MutRevoke, Segment: "secret"}); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	ts, err := c.Fetch(Fetch{Shards: 0b111, Names: true})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	def, _ := reg.Get(tenant.DefaultTenant)
	st := def.Store()
	for i := 0; i < 3; i++ {
		got, want := ts.Tables[i], st.Table(i)
		if got.Epoch() != want.Epoch() || !reflect.DeepEqual(got.Views(), want.Views()) {
			t.Errorf("shard %d: fetched epoch %d %v, store has epoch %d %v",
				i, got.Epoch(), got.Views(), want.Epoch(), want.Views())
		}
	}
	if v := ts.Tables[2].Views()[0]; ts.Tables[2].Epoch() != 2 || v.Present || v.Bound != 8 {
		t.Errorf("revoked secret fetched at epoch %d as %+v, want epoch 2, absent, bound kept",
			ts.Tables[2].Epoch(), v)
	}
	if !reflect.DeepEqual(ts.Names, st.Segments()) {
		t.Errorf("names %q, want %q", ts.Names, st.Segments())
	}
	ts, err = c.Fetch(Fetch{Shards: 0b10})
	if err != nil {
		t.Fatalf("fetch without names: %v", err)
	}
	if ts.Names != nil || ts.Tables[0] != nil || ts.Tables[1] == nil {
		t.Errorf("fetch of shard 1 alone answered %+v", ts)
	}
}

// TestFetchBeyondShardCount checks that a fetch naming a shard at or
// beyond the tenant's shard count answers CodeBadRequest and leaves
// the session open.
func TestFetchBeyondShardCount(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1, Shards: 4})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for _, shards := range []uint64{1 << 4, 1<<63 | 1} {
		_, err := c.Fetch(Fetch{Shards: shards})
		var ef *ErrFrame
		if !errors.As(err, &ef) || ef.Code != CodeBadRequest {
			t.Errorf("fetch of shards %#x answered %v, want a %d error frame", shards, err, CodeBadRequest)
		}
	}
	if _, err := c.Fetch(Fetch{Shards: 0b1111}); err != nil {
		t.Errorf("session unusable after a rejected fetch: %v", err)
	}
}

// TestPingFlushesShootdowns checks that a ping on a subscribed session
// is a barrier: when Ping returns, the client has been told of every
// edit published before the server answered it, whether or not the
// session's pusher had run yet.
func TestPingFlushesShootdowns(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	var heard atomic.Uint64 // highest shard-0 epoch announced
	c, err := Dial(addr, ClientConfig{OnShootdown: func(sd Shootdown) {
		if sd.Shard == 0 && sd.Epoch > heard.Load() {
			heard.Store(sd.Epoch)
		}
	}})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Subscribe(); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	def, _ := reg.Get(tenant.DefaultTenant)
	st := def.Store()
	for i := 0; i < 50; i++ {
		b := core.Brackets{R1: 2, R2: 4, R3: 4}
		if i%2 == 0 {
			b = core.Brackets{R1: 0, R2: 1, R3: 1}
		}
		if err := st.SetBrackets(0, true, true, false, b, 0); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if _, err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		if got, want := heard.Load(), st.ShardVersion(0); got < want {
			t.Fatalf("edit %d: ping answered with shard 0 announced at epoch %d, published %d", i, got, want)
		}
	}
}

// TestSubscribeShootdownNamesEdit checks that a shootdown names the
// edit that published the table it announces: its epoch and its
// segment, whichever segment of the shard was edited. Pushes that
// coalesce name the last edit.
func TestSubscribeShootdownNamesEdit(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1, Shards: 1})
	_, addr := startWireServer(t, reg, Config{})
	pushes := make(chan Shootdown, 64)
	c, err := Dial(addr, ClientConfig{OnShootdown: func(sd Shootdown) { pushes <- sd }})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Subscribe(); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	def, _ := reg.Get(tenant.DefaultTenant)
	st := def.Store()
	// Segments 0 ("data") and 2 ("secret") share the one shard; each
	// edit keeps the segment's flags and flips its brackets.
	edit := func(k int) uint32 {
		t.Helper()
		segno := uint32(2 * (k % 2))
		b := core.Brackets{R1: 0, R2: 1, R3: 1}
		if k%4 >= 2 {
			b = core.Brackets{R1: 2, R2: 4, R3: 4}
		}
		if err := st.SetBrackets(segno, true, segno == 0, false, b, 0); err != nil {
			t.Fatalf("edit %d: %v", k, err)
		}
		return segno
	}
	drained := func() []Shootdown {
		var got []Shootdown
		for {
			select {
			case sd := <-pushes:
				got = append(got, sd)
			default:
				return got
			}
		}
	}

	for k := 0; k < 8; k++ {
		segno := edit(k)
		if _, err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", k, err)
		}
		want := Shootdown{Shard: 0, Segno: segno, Epoch: uint64(2 * (k + 1))}
		if got := drained(); len(got) != 1 || got[0] != want {
			t.Fatalf("edit %d: shootdowns %+v, want exactly %+v", k, got, want)
		}
	}

	var last uint32
	for k := 8; k < 12; k++ {
		last = edit(k)
	}
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping after burst: %v", err)
	}
	got := drained()
	want := Shootdown{Shard: 0, Segno: last, Epoch: 24}
	if len(got) == 0 || got[len(got)-1] != want {
		t.Fatalf("after four unpinged edits: shootdowns %+v, want the last to be %+v", got, want)
	}
	for i, sd := range got {
		if sd.Epoch <= 16 || (i > 0 && sd.Epoch <= got[i-1].Epoch) {
			t.Errorf("burst shootdown epochs %+v are not increasing past 16", got)
			break
		}
	}
}

// TestSubscribeAfterEvictExpires checks a subscription made after the
// tenant's eviction: the ack arrives, then exactly one LeaseExpire and
// no shootdown, and the subscription is gone once the session closes.
func TestSubscribeAfterEvictExpires(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	def, _ := reg.Get(tenant.DefaultTenant)
	expires := make(chan LeaseExpire, 4)
	pushes := make(chan Shootdown, 4)
	c, err := Dial(addr, ClientConfig{
		OnShootdown:   func(sd Shootdown) { pushes <- sd },
		OnLeaseExpire: func(le LeaseExpire) { expires <- le },
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := reg.Evict(tenant.DefaultTenant); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if _, err := c.Subscribe(); err != nil {
		t.Fatalf("subscribe after evict: %v", err)
	}
	select {
	case le := <-expires:
		if le.Code != CodeUnavailable {
			t.Errorf("lease-expire code = %d, want %d", le.Code, CodeUnavailable)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no lease-expire after a subscribe on an evicted tenant")
	}
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping after lease-expire: %v", err)
	}
	select {
	case le := <-expires:
		t.Errorf("second lease-expire: %+v", le)
	case sd := <-pushes:
		t.Errorf("shootdown on an evicted tenant: %+v", sd)
	case <-time.After(50 * time.Millisecond):
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for def.SubscriptionStats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriber(s) left after the session closed", def.SubscriptionStats().Subscribers)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubscribeCountsFramesAndExpires checks the tenant's feed
// counters against what clients saw: after edits and a ping on every
// subscribed session, the shootdown count equals the frames received,
// coalesced pushes included, and an eviction counts each subscription
// it revoked.
func TestSubscribeCountsFramesAndExpires(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1, Shards: 2})
	_, addr := startWireServer(t, reg, Config{})
	def, _ := reg.Get(tenant.DefaultTenant)
	var frames atomic.Uint64
	expired := make(chan struct{}, 2)
	var subs []*Client
	for i := 0; i < 2; i++ {
		c, err := Dial(addr, ClientConfig{
			OnShootdown:   func(Shootdown) { frames.Add(1) },
			OnLeaseExpire: func(LeaseExpire) { expired <- struct{}{} },
		})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		if _, err := c.Subscribe(); err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		subs = append(subs, c)
	}
	plain, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial unsubscribed: %v", err)
	}
	defer plain.Close()
	if got := def.SubscriptionStats().Subscribers; got != 2 {
		t.Fatalf("subscribers = %d, want 2", got)
	}

	st := def.Store()
	for k := 0; k < 40; k++ {
		b := core.Brackets{R1: 0, R2: 1, R3: 1}
		if k%2 == 1 {
			b = core.Brackets{R1: 2, R2: 4, R3: 4}
		}
		if err := st.SetBrackets(uint32(k%3), true, false, false, b, 0); err != nil {
			t.Fatalf("edit %d: %v", k, err)
		}
	}
	for i, c := range subs {
		if _, err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if got, want := def.SubscriptionStats().Shootdowns, frames.Load(); got != want || want == 0 {
		t.Errorf("tenant counts %d shootdowns, clients received %d", got, want)
	}

	if err := reg.Evict(tenant.DefaultTenant); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if got := def.SubscriptionStats().Expires; got != 2 {
		t.Errorf("expires = %d after evicting two subscriptions, want 2", got)
	}
	for i := range subs {
		select {
		case <-expired:
		case <-time.After(5 * time.Second):
			t.Fatalf("lease-expire %d never arrived", i)
		}
	}
}
