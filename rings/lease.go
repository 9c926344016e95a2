package rings

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// This file is the client half of descriptor replication: the network
// analogue of the paper's per-processor SDW associative memory. A
// RemoteChecker dialed with a CacheSize keeps a replica of its tenant's
// descriptor tables, one per shard, each fetched at an even publication
// epoch, and decides every query locally through the procedure the
// server runs (service.Decider). The wire session's subscription
// stream delivers the supervisor's shootdowns: a shootdown naming shard
// epoch E makes that shard's table stale if it is older than E, and the
// next batch consulting the shard fetches it again.
//
// # Staleness argument
//
// A batch decides from a shard's table only while three conditions
// hold:
//
//  1. its epoch is at or beyond the shard's shootdown floor — no
//     acknowledged shootdown names a newer publication;
//  2. its TTL, counted from when its fetch was sent, has not elapsed —
//     a stalled or lagging stream bounds staleness by the TTL instead
//     of forever;
//  3. its session is live — a dead session (GoAway, disconnect, call
//     timeout, lease-expire) lapses the whole replica, and every query
//     goes to the server until a fresh session resubscribes and fills a
//     new replica.
//
// Callers deciding locally can keep every processor busy and starve
// the session's reader, leaving shootdowns the server sent unread; so
// a batch that finds the stream silent for longer than syncEvery pings
// it first, and the server announces every edit it published before
// answering. A batch checks every shard it consults before deciding,
// fetches the stale ones in one round trip, and decides from exactly
// the tables it checked or fetched, each a clean snapshot of its
// shard. Every decision is therefore the server's answer at the epoch
// it reports, and no batch that begins after the client has
// acknowledged a shootdown decides from a table older than the epoch
// it names: the floor store in the shootdown handler happens before
// the handler returns, and every later batch reads the floor.

// CacheStats is a replica's counters, for /metrics-style reporting and
// the T17 experiment.
type CacheStats struct {
	// Hits counts queries decided from a resident fresh table. Misses
	// counts queries whose shard table had to be fetched for them, and
	// queries sent to the server while the replica was lapsed.
	Hits, Misses uint64
	// Shootdowns counts invalidation pushes received; Expires counts
	// lease-expire pushes; Flushes counts whole-replica drops (lapse,
	// reconnect).
	Shootdowns, Expires, Flushes uint64
	// Size is the number of resident shard tables.
	Size int
}

// cacheCounters back CacheStats; every session's replica of one
// checker shares them.
type cacheCounters struct {
	hits, misses, shootdowns, expires, flushes atomic.Uint64
}

// resident is one shard's installed table and the instant its TTL runs
// out.
type resident struct {
	tab     *service.Table
	expires int64 // UnixNano
}

// flight is one table fetch in progress; a batch needing one of its
// shards waits on done instead of fetching the shard again.
type flight struct {
	done chan struct{}
	ts   *wire.Tables
	err  error
}

// replica is one wire session's copy of its tenant's descriptor
// tables. Its handlers belong to its session alone, so a session's
// death lapses only its own replica: an old session closed after a
// redial cannot lapse the replica that replaced it.
type replica struct {
	wc     *wire.Client
	ttl    time.Duration
	shards int
	names  map[string]uint32 // filled before the replica is shared
	stats  *cacheCounters

	// floors[i] is shard i's shootdown floor: the highest epoch a
	// shootdown on this session has named for it.
	floors [service.MaxShards]atomic.Uint64
	tables [service.MaxShards]atomic.Pointer[resident]
	// lapsed is set once, when the session dies or its subscription is
	// revoked; a lapsed replica holds no table and decides nothing.
	lapsed atomic.Bool
	// heard is when the stream last showed it was being read (UnixNano):
	// the fill, a shootdown, or a ping barrier. busy is when a batch last
	// marked the replica in use, at most once per syncEvery/4. syncing
	// marks a barrier in flight.
	heard, busy atomic.Int64
	syncing     atomic.Bool

	flightMu sync.Mutex
	flights  [service.MaxShards]*flight //ring:guarded flightMu
}

// dialReplica opens a session with its own replica, subscribes it, and
// fills it with every shard's table and the image's segment names.
func (rc *RemoteChecker) dialReplica() (*replica, error) {
	r := &replica{ttl: rc.ttl, stats: rc.cache}
	cfg := rc.wcfg
	cfg.OnShootdown = r.shootdown
	cfg.OnLeaseExpire = func(wire.LeaseExpire) {
		r.stats.expires.Add(1)
		r.lapse()
	}
	cfg.OnClose = func(error) { r.lapse() }
	wc, err := wire.Dial(rc.wireAddr, cfg)
	if err != nil {
		return nil, err
	}
	r.wc = wc
	r.shards = int(wc.Welcome().Shards)
	var ts *wire.Tables
	all := uint64(1)<<r.shards - 1
	sent := time.Now().UnixNano()
	if r.shards < 1 || r.shards > service.MaxShards || r.shards&(r.shards-1) != 0 {
		err = errors.New("rings: server reports an invalid shard count")
	} else if _, err = wc.Subscribe(); err == nil {
		ts, err = wc.Fetch(wire.Fetch{Shards: all, Names: true})
	}
	if err != nil {
		r.lapsed.Store(true) // never installed: its close is no flush
		wc.Close()
		return nil, mapWireErr(err)
	}
	r.names = make(map[string]uint32, len(ts.Names))
	for i, name := range ts.Names {
		r.names[name] = uint32(i)
	}
	r.install(all, ts, sent)
	r.heard.Store(sent)
	return r, nil
}

// syncEvery bounds how long a busy replica decides without hearing from
// its stream. Shootdowns are read by the session's reader goroutine,
// which waits for a processor like any other: callers that keep every
// processor busy with local decisions can hold it off for a scheduler
// round, about a millisecond on two processors. A caller that finds
// the replica in use within the last quarter of syncEvery and the
// stream silent for longer than syncEvery first pings it (one round
// trip, one caller at a time), and the server announces every edit it
// published before answering, so the replica's floors are that fresh
// before the batch checks its tables. A replica used less often than
// that leaves its reader the processor and never pings.
const syncEvery = 500 * time.Microsecond

// decide answers the batch locally: it checks the table of every shard
// the batch consults, fetches the stale ones, and decides from exactly
// the tables it checked, with a decider on its own stack.
//
//ring:hotpath
func (r *replica) decide(queries []Query, dst []Decision) error {
	now := time.Now().UnixNano()
	if now-r.busy.Load() > int64(syncEvery/4) {
		r.busy.Store(now)
	} else if now-r.heard.Load() > int64(syncEvery) && r.syncing.CompareAndSwap(false, true) {
		//ring:allow stream barrier: one round trip per syncEvery of silence
		_, err := r.wc.Ping()
		r.syncing.Store(false)
		if err != nil {
			return mapWireErr(err)
		}
		r.heard.Store(now)
		now = time.Now().UnixNano()
	}
	var tabs [service.MaxShards]*service.Table
	dc := service.NewDecider(r.names, tabs[:r.shards])
	var need uint64
	for i := range queries {
		need |= dc.Consults(&queries[i])
	}
	var stale, missed uint64
	for m := need; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if tabs[i] = r.fresh(i, now); tabs[i] == nil {
			stale |= 1 << i
		}
	}
	if stale != 0 {
		for i := range queries {
			if dc.Consults(&queries[i])&stale != 0 {
				missed++
			}
		}
		r.stats.misses.Add(missed)
		//ring:allow miss path: a fetch allocates its flight and the tables it brings
		if err := r.fetch(stale, &tabs); err != nil {
			return err
		}
	}
	r.stats.hits.Add(uint64(len(queries)) - missed)
	dc.Decide(queries, dst)
	return nil
}

// fresh returns shard i's resident table if a batch beginning at now
// may decide from it: within its TTL and at or beyond the shard's
// shootdown floor. Otherwise it returns nil.
//
//ring:hotpath
func (r *replica) fresh(i int, now int64) *service.Table {
	if e := r.tables[i].Load(); e != nil && now < e.expires && e.tab.Epoch() >= r.floors[i].Load() {
		return e.tab
	}
	return nil
}

// fetch stores a current table for every shard in stale into tabs.
// Shards another batch is already fetching are waited for; the rest
// are fetched in one round trip and installed for later batches —
// single flight per shard. A batch decides from what it fetched even
// if a shootdown lands during the round trip, as it would from the
// server's own answer; only later batches see the table go stale.
func (r *replica) fetch(stale uint64, tabs *[service.MaxShards]*service.Table) error {
	var waits [service.MaxShards]*flight
	var lead uint64
	mine := &flight{done: make(chan struct{})}
	r.flightMu.Lock()
	for m := stale; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if waits[i] = r.flights[i]; waits[i] == nil {
			waits[i], r.flights[i] = mine, mine
			lead |= 1 << i
		}
	}
	r.flightMu.Unlock()
	if lead != 0 {
		sent := time.Now().UnixNano()
		if mine.ts, mine.err = r.wc.Fetch(wire.Fetch{Shards: lead}); mine.err == nil {
			r.install(lead, mine.ts, sent)
		}
		r.flightMu.Lock()
		for m := lead; m != 0; m &= m - 1 {
			r.flights[bits.TrailingZeros64(m)] = nil
		}
		r.flightMu.Unlock()
		close(mine.done)
	}
	for m := stale; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		<-waits[i].done
		if err := waits[i].err; err != nil {
			return mapWireErr(err)
		}
		tabs[i] = waits[i].ts.Tables[i]
	}
	return nil
}

// install makes the fetched tables of the shards in mask resident until
// their TTL, counted from sent, runs out. A lapsed replica holds no
// table: a lapse racing the stores either precedes the check below,
// which undoes them, or follows it and drops them itself.
func (r *replica) install(mask uint64, ts *wire.Tables, sent int64) {
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		r.tables[i].Store(&resident{tab: ts.Tables[i], expires: sent + int64(r.ttl)})
	}
	if r.lapsed.Load() {
		for m := mask; m != 0; m &= m - 1 {
			r.tables[bits.TrailingZeros64(m)].Store(nil)
		}
	}
}

// shootdown is the session's OnShootdown handler: raise the shard's
// floor to the named epoch. Floors only rise, and the store-before-
// return ordering is what makes the no-stale-after-acknowledge
// property hold.
func (r *replica) shootdown(sd wire.Shootdown) {
	r.heard.Store(time.Now().UnixNano())
	if sd.Shard < service.MaxShards {
		f := &r.floors[sd.Shard]
		for {
			cur := f.Load()
			if sd.Epoch <= cur || f.CompareAndSwap(cur, sd.Epoch) {
				break
			}
		}
	}
	// Counter last: anyone who observes the count knows the floor it
	// announced is already in place.
	r.stats.shootdowns.Add(1)
}

// lapse fails the replica closed: its session is gone or its
// subscription revoked, so its tables are unverifiable. Every table is
// dropped, and the checker's next call redials.
func (r *replica) lapse() {
	if r.lapsed.Swap(true) {
		return
	}
	for i := range r.tables {
		r.tables[i].Store(nil)
	}
	r.stats.flushes.Add(1)
}

// cachedCheckInto is CheckInto with the replica in front of the wire
// session: decided locally while the replica is live, sent to the
// server while it is lapsed.
func (rc *RemoteChecker) cachedCheckInto(queries []Query, dst []Decision) error {
	rc.ensureLive()
	r := rc.rep.Load()
	if r.lapsed.Load() {
		rc.cache.misses.Add(uint64(len(queries)))
		return mapWireErr(r.wc.CheckInto(queries, dst))
	}
	return r.decide(queries, dst)
}

// redialInterval paces reconnect attempts while the daemon is
// unreachable, so every batch does not pay a dial timeout.
const redialInterval = 50 * time.Millisecond

// ensureLive replaces a lapsed replica: it redials, resubscribes and
// fills a new replica, then closes the old session. On failure the
// replica stays lapsed — every query goes to the server — and the next
// call past the backoff retries.
func (rc *RemoteChecker) ensureLive() {
	if !rc.rep.Load().lapsed.Load() || rc.closed.Load() {
		return
	}
	now := time.Now().UnixNano()
	last := rc.lastRedial.Load()
	if now-last < int64(redialInterval) || !rc.lastRedial.CompareAndSwap(last, now) {
		return
	}
	rc.redialMu.Lock()
	defer rc.redialMu.Unlock()
	if !rc.rep.Load().lapsed.Load() || rc.closed.Load() {
		return
	}
	r, err := rc.dialReplica()
	if err != nil {
		return
	}
	old := rc.rep.Swap(r)
	rc.wcp.Store(r.wc)
	rc.cache.flushes.Add(1)
	old.wc.Close()
	// A Close that ran during the dial closed only the dead session.
	// Close stores closed before it loads the session pointer, so
	// either it closes r.wc or this load sees closed.
	if rc.closed.Load() {
		r.wc.Close()
	}
}

// CacheStats returns the replica's counters; the zero value when the
// checker was dialed without a cache.
func (rc *RemoteChecker) CacheStats() CacheStats {
	c := rc.cache
	if c == nil {
		return CacheStats{}
	}
	cs := CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Shootdowns: c.shootdowns.Load(),
		Expires:    c.expires.Load(),
		Flushes:    c.flushes.Load(),
	}
	r := rc.rep.Load()
	for i := range r.tables {
		if r.tables[i].Load() != nil {
			cs.Size++
		}
	}
	return cs
}
