package tenant

import (
	"sync"
	"sync/atomic"
)

// This file is the server half of descriptor replication's coherence
// protocol: a per-tenant subscriber hub fanning every descriptor
// mutation out to the wire sessions that asked for invalidations.
//
// The paper's processors keep per-processor SDW associative memories
// coherent through an explicit shootdown group — the supervisor edits
// core, then broadcasts "drop your copy of this descriptor" to every
// member. Remote clients replicating a tenant's descriptor tables are
// the network's associative memories, and the hub is their group: the
// store's RCU publish step (which already serializes per shard and
// stamps each publication with an even epoch) calls the hub once per
// mutation, still under the shard's mutation lock, and the hub records
// the event in every subscriber's per-shard mailbox.
//
// # Coalescing
//
// A mailbox is one atomic epoch slot per shard, not a queue. A
// shootdown for shard i at epoch E invalidates every lease on shard i
// tagged with an epoch < E; since per-shard epochs are monotonic, the
// latest epoch subsumes every earlier one and overwriting the slot
// loses nothing. A slow session therefore costs two atomic stores per
// mutation — never memory, never blocking the mutator. The edited
// segment number rides in a parallel advisory slot: under coalescing a
// reader may observe a segno newer than the epoch it swapped out, so
// consumers must treat the epoch as the authority and the segno as a
// hint.
type Subscriber struct {
	// epochs[i] holds the latest invalidation epoch for shard i not yet
	// drained by the session pusher; 0 means none pending (publication
	// epochs are even and start at 2, so 0 is free as a sentinel).
	epochs []atomic.Uint64
	// segnos[i] is the advisory last-edited segment number of shard i.
	segnos []atomic.Uint32
	// notify wakes the session pusher; capacity 1, send never blocks.
	notify chan struct{}
	// expired flips once when the tenant drains or the hub closes: the
	// subscription is revoked, no further shootdowns will arrive, and
	// the client must drop its replica.
	expired atomic.Bool
}

// Notify returns the wake channel the session pusher selects on; a
// receive means at least one mailbox slot (or the expired flag) was
// set since the last drain.
func (s *Subscriber) Notify() <-chan struct{} { return s.notify }

// Expired reports whether the subscription has been revoked.
func (s *Subscriber) Expired() bool { return s.expired.Load() }

// wake nudges the pusher without ever blocking the caller (which may
// hold a store shard's mutation lock).
func (s *Subscriber) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Drain consumes every pending invalidation, calling f once per shard
// with a nonzero slot: the shard index, the advisory segno, and the
// (even) epoch whose publication the event followed. Slots are swapped
// to zero, so concurrent mutations during the drain are kept for the
// next round. Callers serialize the drains of one subscriber: the wire
// session drains under its write lock, from its pusher and when it
// answers a ping.
func (s *Subscriber) Drain(f func(shard int, segno uint32, epoch uint64)) {
	for i := range s.epochs {
		if e := s.epochs[i].Swap(0); e != 0 {
			f(i, s.segnos[i].Load(), e)
		}
	}
}

// leaseHub is one tenant's subscriber set: a copy-on-write list read
// lock-free by the broadcast path (the same idiom as the store's RCU
// reader list — registration is rare, broadcast is per-mutation).
type leaseHub struct {
	shards int

	mu     sync.Mutex // subscribe/unsubscribe/close only
	closed bool       //ring:guarded mu
	subs   atomic.Pointer[[]*Subscriber]

	shootdowns atomic.Uint64 // events delivered (subscribers × mutations)
	expires    atomic.Uint64 // subscriptions revoked
}

func newLeaseHub(shards int) *leaseHub {
	h := &leaseHub{shards: shards}
	h.subs.Store(&[]*Subscriber{})
	return h
}

// broadcast is the store's publish hook: called once per descriptor
// mutation, under the publishing shard's mutation lock, with per-shard
// calls in strictly increasing epoch order. It must not block and must
// not allocate on the steady path.
func (h *leaseHub) broadcast(shard int, segno uint32, epoch uint64) {
	subs := *h.subs.Load()
	for _, s := range subs {
		// Segno before epoch: once a drain observes epoch E, the segno
		// slot holds a value at least as fresh as E's edit.
		s.segnos[shard].Store(segno)
		s.epochs[shard].Store(epoch)
		s.wake()
	}
	if len(subs) > 0 {
		h.shootdowns.Add(uint64(len(subs)))
	}
}

// subscribe registers a new subscriber. On a hub already closed the
// subscriber is born expired, so the session pusher immediately sends
// the revocation instead of a silent never-notified stream.
func (h *leaseHub) subscribe() *Subscriber {
	s := &Subscriber{
		epochs: make([]atomic.Uint64, h.shards),
		segnos: make([]atomic.Uint32, h.shards),
		notify: make(chan struct{}, 1),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		s.expired.Store(true)
		s.wake()
		return s
	}
	old := *h.subs.Load()
	next := make([]*Subscriber, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	h.subs.Store(&next)
	h.mu.Unlock()
	return s
}

// unsubscribe removes s (idempotent); called when its session closes.
func (h *leaseHub) unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := *h.subs.Load()
	next := make([]*Subscriber, 0, len(old))
	for _, o := range old {
		if o != s {
			next = append(next, o)
		}
	}
	h.subs.Store(&next)
}

// close revokes every subscription and refuses new ones: the tenant is
// draining, no further mutations will publish, and every outstanding
// lease must be dropped rather than ride its TTL out against a store
// that is about to disappear.
func (h *leaseHub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	old := *h.subs.Load()
	h.subs.Store(&[]*Subscriber{})
	h.mu.Unlock()
	for _, s := range old {
		s.expired.Store(true)
		s.wake()
	}
	h.expires.Add(uint64(len(old)))
}

// LeaseStats is a tenant's lease-hub counters, surfaced by /metrics.
type LeaseStats struct {
	// Subscribers is the current subscription count.
	Subscribers int `json:"subscribers"`
	// Shootdowns counts invalidation events delivered (one per
	// subscriber per mutation).
	Shootdowns uint64 `json:"shootdowns"`
	// Expires counts subscriptions revoked by seal-free lifecycle
	// transitions (drain/evict) or daemon shutdown.
	Expires uint64 `json:"expires"`
}

// Subscribe registers a lease subscription with the tenant: every
// subsequent descriptor mutation is recorded in the returned
// subscriber's mailbox. The caller owns the drain loop and must
// Unsubscribe when its session ends. A tenant without a live hub
// (still loading, draining or evicted) returns an already-expired
// subscriber.
func (t *Tenant) Subscribe() *Subscriber {
	if h := t.hub; h != nil {
		return h.subscribe()
	}
	s := &Subscriber{notify: make(chan struct{}, 1)}
	s.expired.Store(true)
	s.wake()
	return s
}

// Unsubscribe removes a subscription (idempotent).
func (t *Tenant) Unsubscribe(s *Subscriber) {
	if h := t.hub; h != nil {
		h.unsubscribe(s)
	}
}

// LeaseStats returns the tenant's lease-hub counters.
func (t *Tenant) LeaseStats() LeaseStats {
	h := t.hub
	if h == nil {
		return LeaseStats{}
	}
	return LeaseStats{
		Subscribers: len(*h.subs.Load()),
		Shootdowns:  h.shootdowns.Load(),
		Expires:     h.expires.Load(),
	}
}
