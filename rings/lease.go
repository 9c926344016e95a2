package rings

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// This file is the client half of the distributed decision-lease
// protocol: the network analogue of the paper's per-processor SDW
// associative memory. A RemoteChecker dialed with a CacheSize holds a
// bounded map from query tuples to decisions, each lease tagged with
// the decision's shard publication epoch and a wall-clock TTL; the
// wire session's subscription stream delivers the supervisor's
// shootdowns, and a shootdown naming shard epoch E retires every lease
// on that shard tagged with an older epoch.
//
// # Staleness argument
//
// A cached decision is served only while three conditions hold:
//
//  1. its epoch is at or beyond the shard's shootdown floor — no
//     acknowledged shootdown names it;
//  2. its TTL has not elapsed — a stalled or lagging stream bounds
//     staleness by the TTL instead of forever;
//  3. the subscription is live — a dead session (GoAway, disconnect,
//     lease-expire) drops the whole cache and every lookup misses
//     until a fresh session resubscribes and starts from empty.
//
// Every served decision therefore remains explainable at some store
// state within its recorded epoch interval, and no decision is served
// after the client has acknowledged a shootdown naming its epoch: the
// floor store in the shootdown handler happens before the handler
// returns, and every subsequent lookup reads the floor.

// maxLeaseChain bounds the effective-ring chain length a lease key can
// represent; longer chains bypass the cache (they are rare and their
// decisions span shards anyway).
const maxLeaseChain = 4

// leaseKey is a fixed-size comparable image of one Query: cache
// lookups build it on the stack and index the lease map directly, so
// the hit path neither hashes by hand nor allocates, and distinct
// queries can never collide. The op travels as a one-byte code and
// fields the decision procedure ignores for an op are canonicalized to
// zero — both shrink the hashed bytes, which is most of a hit's cost.
type leaseKey struct {
	op          uint8 // 1 access, 2 call, 3 return, 4 effring
	ring        Ring
	kind        uint8 // validated AccessKind; meaningful for access only
	effRing     Ring
	hasEff      bool
	sameSegment bool
	chainLen    uint8
	segno       uint32
	wordno      uint32
	chain       [maxLeaseChain]ChainStep
	segment     string
}

// leaseKeyOf builds q's cache key. It reports false for queries the
// cache does not serve: unknown ops, out-of-range access kinds (a
// narrowed kind must never collide with a valid one), and
// effective-ring chains longer than maxLeaseChain.
//
//ring:hotpath
func leaseKeyOf(q *Query) (leaseKey, bool) {
	k := leaseKey{
		ring:    q.Ring,
		segment: q.Segment,
		segno:   q.Segno,
		wordno:  q.Wordno,
	}
	switch q.Op {
	case OpAccess:
		// Only access reads the kind; call/return/effring ignore it, so
		// leaving it zero there folds equivalent queries into one lease.
		if q.Kind != AccessRead && q.Kind != AccessWrite && q.Kind != AccessExecute {
			return k, false
		}
		k.op, k.kind = 1, uint8(q.Kind)
	case OpCall:
		k.op = 2
		k.sameSegment = q.SameSegment
	case OpReturn:
		k.op = 3
	default:
		if q.Op != OpEffRing {
			return k, false
		}
		k.op = 4
	}
	if q.EffRing != nil {
		k.hasEff = true
		k.effRing = *q.EffRing
	}
	if len(q.Chain) > maxLeaseChain {
		return k, false
	}
	k.chainLen = uint8(len(q.Chain))
	for i := range q.Chain {
		k.chain[i] = q.Chain[i]
	}
	return k, true
}

// lease is one cached decision: the answer, the (even) shard
// publication epoch it was decided at, and its wall-clock expiry.
type lease struct {
	dec     Decision
	epoch   uint64
	expires int64 // UnixNano
}

// flight is one in-flight miss being fetched by a leader call;
// followers for the same key wait on done instead of duplicating the
// remote fetch.
type flight struct {
	done chan struct{}
	dec  Decision
	ok   bool
}

// CacheStats is a lease cache's counters, for /metrics-style
// reporting and the T17 experiment.
type CacheStats struct {
	// Hits and Misses count individual queries served from the cache
	// vs fetched remotely.
	Hits, Misses uint64
	// Shootdowns counts invalidation pushes received; Expires counts
	// lease-expire pushes; Flushes counts whole-cache drops (lapse,
	// reconnect).
	Shootdowns, Expires, Flushes uint64
	// Size is the current lease count.
	Size int
}

// leaseCache is the bounded decision-lease cache behind a cached
// RemoteChecker.
type leaseCache struct {
	cap int
	ttl time.Duration

	mu      sync.RWMutex
	entries map[leaseKey]*lease //ring:guarded mu (pointer values: put replaces, never mutates in place)

	flightMu sync.Mutex
	flights  map[leaseKey]*flight //ring:guarded flightMu

	// floors[i] is shard i's shootdown floor: the highest invalidation
	// epoch acknowledged for that shard. Sized to the store's shard
	// bound so the handler can never race a sizing step.
	floors [service.MaxShards]atomic.Uint64

	// lapsed is set the instant the subscription stream dies (GoAway,
	// disconnect, lease-expire): every lookup fails closed to a miss
	// and nothing is inserted until a fresh session resubscribes.
	lapsed atomic.Bool
	// gen counts subscription generations; it bumps on every lapse and
	// revive, and an insert whose fetch began under an older generation
	// is refused — a decision fetched over a dead session must never
	// seed the revived cache (the mutations it missed were never
	// announced to the new subscription).
	gen atomic.Uint64

	hits       atomic.Uint64
	misses     atomic.Uint64
	shootdowns atomic.Uint64
	expires    atomic.Uint64
	flushes    atomic.Uint64
}

func newLeaseCache(capacity int, ttl time.Duration) *leaseCache {
	return &leaseCache{
		cap:     capacity,
		ttl:     ttl,
		entries: make(map[leaseKey]*lease, capacity),
		flights: make(map[leaseKey]*flight),
	}
}

// serveHits answers every lease-resident query of the batch in one
// read-locked pass, filling dst[i] for each hit and appending a
// missRec for everything else. The epoch-floor and TTL checks run
// under the read lock on every hit, so a lookup beginning after a
// shootdown (or lapse) is acknowledged can never return the lease it
// retired; taking the lock once per batch instead of once per query is
// what keeps the hit path ahead of the wire on a saturated core.
//
//ring:hotpath
func (lc *leaseCache) serveHits(queries []Query, dst []Decision, now int64, live bool, misses []missRec) []missRec {
	var nhits uint64
	lc.mu.RLock()
	serveLive := live && !lc.lapsed.Load()
	for i := range queries {
		k, cacheable := leaseKeyOf(&queries[i])
		if serveLive && cacheable {
			if l, ok := lc.entries[k]; ok &&
				now < l.expires &&
				l.epoch >= lc.floors[l.dec.Shard].Load() {
				dst[i] = l.dec
				nhits++
				continue
			}
		}
		//ring:allow miss path: appends only for queries the lease map cannot serve
		misses = append(misses, missRec{idx: i, key: k, cacheable: live && cacheable})
	}
	lc.mu.RUnlock()
	if nhits > 0 {
		lc.hits.Add(nhits)
	}
	return misses
}

// put records a fetched decision as a lease. Decisions that answered
// an error, or that no single shard explains (Shard < 0), are not
// cacheable; a full cache evicts an arbitrary victim (the map's first
// iterated key — cheap, and correctness never depends on which lease
// is dropped). The subscription check runs under the write lock: a
// lapse and revive that land while put waits for the lock must still
// refuse the insert, and the flush both take cannot run until put has
// released the lock.
func (lc *leaseCache) put(k leaseKey, dec Decision, now int64, gen uint64) {
	if dec.Err != "" || dec.Shard < 0 || dec.Shard >= service.MaxShards {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.lapsed.Load() || lc.gen.Load() != gen {
		return
	}
	if _, exists := lc.entries[k]; !exists && len(lc.entries) >= lc.cap {
		for victim := range lc.entries {
			delete(lc.entries, victim)
			break
		}
	}
	lc.entries[k] = &lease{dec: dec, epoch: dec.VersionLo, expires: now + int64(lc.ttl)}
}

// shootdown is the wire session's OnShootdown handler: raise the
// shard's floor to the named epoch. Floors only rise (epochs are
// monotonic per shard, but a reconnected session could replay an older
// one), and the store-before-return ordering is what makes the
// no-stale-after-acknowledge property hold.
func (lc *leaseCache) shootdown(sd wire.Shootdown) {
	if sd.Shard < service.MaxShards {
		f := &lc.floors[sd.Shard]
		for {
			cur := f.Load()
			if sd.Epoch <= cur || f.CompareAndSwap(cur, sd.Epoch) {
				break
			}
		}
	}
	// Counter last: anyone who observes the count knows the floor it
	// announced is already in place.
	lc.shootdowns.Add(1)
}

// lapse fails the cache closed: the subscription stream is gone, so
// every lease is unverifiable. Lookups miss and inserts are refused
// until a reconnect resubscribes and calls revive.
func (lc *leaseCache) lapse() {
	lc.lapsed.Store(true)
	lc.gen.Add(1)
	lc.flush()
}

// flush drops every lease.
func (lc *leaseCache) flush() {
	lc.mu.Lock()
	lc.entries = make(map[leaseKey]*lease, lc.cap)
	lc.mu.Unlock()
	lc.flushes.Add(1)
}

// revive re-arms the cache after a fresh session has subscribed: the
// cache is empty (flush precedes it) and the new subscription will
// announce every mutation from here on.
func (lc *leaseCache) revive() {
	lc.flush()
	lc.gen.Add(1)
	lc.lapsed.Store(false)
}

// stats snapshots the counters.
func (lc *leaseCache) stats() CacheStats {
	lc.mu.RLock()
	size := len(lc.entries)
	lc.mu.RUnlock()
	return CacheStats{
		Hits:       lc.hits.Load(),
		Misses:     lc.misses.Load(),
		Shootdowns: lc.shootdowns.Load(),
		Expires:    lc.expires.Load(),
		Flushes:    lc.flushes.Load(),
		Size:       size,
	}
}

// missRec tracks one query the hit pass could not serve.
type missRec struct {
	idx       int
	key       leaseKey
	cacheable bool
	fl        *flight
	owned     bool
}

// cachedCheckInto is CheckInto with the lease cache in front of the
// wire session: a read-locked hit pass, then single-flight remote
// fetches for the misses.
func (rc *RemoteChecker) cachedCheckInto(queries []Query, dst []Decision) error {
	lc := rc.cache
	rc.ensureLive()
	live := !lc.lapsed.Load()
	gen := lc.gen.Load()
	now := time.Now().UnixNano()

	misses := lc.serveHits(queries, dst, now, live, nil)
	if len(misses) == 0 {
		return nil
	}
	lc.misses.Add(uint64(len(misses)))

	// Single-flight: the first call to miss a key leads the fetch;
	// concurrent calls missing the same key follow its flight instead
	// of duplicating the remote round trip. In-batch duplicates are
	// safe: every owned flight completes before any wait below.
	lc.flightMu.Lock()
	for m := range misses {
		if !misses[m].cacheable {
			misses[m].owned = true
			continue
		}
		if fl, ok := lc.flights[misses[m].key]; ok {
			misses[m].fl = fl
			continue
		}
		fl := &flight{done: make(chan struct{})}
		lc.flights[misses[m].key] = fl
		misses[m].fl, misses[m].owned = fl, true
	}
	lc.flightMu.Unlock()

	var subQ []Query
	for m := range misses {
		if misses[m].owned {
			subQ = append(subQ, queries[misses[m].idx])
		}
	}
	var ferr error
	var subD []Decision
	if len(subQ) > 0 {
		subD = make([]Decision, len(subQ))
		ferr = rc.fetchRemote(subQ, subD)
	}
	j := 0
	lc.flightMu.Lock()
	for m := range misses {
		if !misses[m].owned {
			continue
		}
		if ferr == nil {
			dst[misses[m].idx] = subD[j]
			if fl := misses[m].fl; fl != nil {
				fl.dec, fl.ok = subD[j], true
			}
		}
		j++
		if fl := misses[m].fl; fl != nil {
			delete(lc.flights, misses[m].key)
			close(fl.done)
		}
	}
	lc.flightMu.Unlock()
	if ferr == nil {
		j = 0
		for m := range misses {
			if misses[m].owned {
				if misses[m].cacheable {
					lc.put(misses[m].key, subD[j], now, gen)
				}
				j++
			}
		}
	}

	// Followers: collect leases fetched by other calls; a failed
	// leader falls back to a direct fetch of the leftovers.
	var retry []missRec
	for m := range misses {
		if misses[m].owned {
			continue
		}
		<-misses[m].fl.done
		if misses[m].fl.ok {
			dst[misses[m].idx] = misses[m].fl.dec
			continue
		}
		retry = append(retry, misses[m])
	}
	if ferr != nil {
		return ferr
	}
	if len(retry) > 0 {
		rq := make([]Query, len(retry))
		rd := make([]Decision, len(retry))
		for i, m := range retry {
			rq[i] = queries[m.idx]
		}
		if err := rc.fetchRemote(rq, rd); err != nil {
			return err
		}
		for i, m := range retry {
			dst[m.idx] = rd[i]
			if m.cacheable {
				lc.put(m.key, rd[i], now, gen)
			}
		}
	}
	return nil
}

// fetchRemote sends one miss batch down the current wire session.
func (rc *RemoteChecker) fetchRemote(queries []Query, dst []Decision) error {
	wc := rc.wcp.Load()
	if wc == nil {
		return ErrClosed
	}
	return mapWireErr(wc.CheckInto(queries, dst))
}

// redialInterval paces reconnect attempts while the daemon is
// unreachable, so every batch does not pay a dial timeout.
const redialInterval = 50 * time.Millisecond

// ensureLive redials and resubscribes after the subscription stream
// lapsed. On success the cache is flushed (leases from the dead
// session are unverifiable) and re-armed; on failure the cache stays
// lapsed — every query goes remote — and the next call past the
// backoff retries.
func (rc *RemoteChecker) ensureLive() {
	lc := rc.cache
	if !lc.lapsed.Load() || rc.closed.Load() {
		return
	}
	now := time.Now().UnixNano()
	last := rc.lastRedial.Load()
	if now-last < int64(redialInterval) || !rc.lastRedial.CompareAndSwap(last, now) {
		return
	}
	rc.redialMu.Lock()
	defer rc.redialMu.Unlock()
	if !lc.lapsed.Load() || rc.closed.Load() {
		return
	}
	wc, err := wire.Dial(rc.wireAddr, rc.wcfg)
	if err != nil {
		return
	}
	if _, err := wc.Subscribe(); err != nil {
		wc.Close()
		return
	}
	old := rc.wcp.Swap(wc)
	lc.revive()
	if old != nil {
		old.Close()
	}
	// A Close that ran during the dial closed only the dead session.
	// Close stores closed before it loads the session pointer, so
	// either it closes wc or this load sees closed.
	if rc.closed.Load() {
		wc.Close()
	}
}

// CacheStats returns the lease cache's counters; the zero value when
// the checker was dialed without a cache.
func (rc *RemoteChecker) CacheStats() CacheStats {
	if rc.cache == nil {
		return CacheStats{}
	}
	return rc.cache.stats()
}
