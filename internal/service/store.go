// Package service exposes the MMU decision procedure as a concurrent
// protection-decision server: the reference monitor the paper's
// hardware implements, offered as a policy-decision point for many
// clients at once.
//
// The paper's validation logic — bracket checks, gate lists, the
// CALL/RETURN decision tables — is a mechanical procedure evaluated on
// every reference. internal/mmu already packages that procedure as the
// single access path of the simulated machine; this package puts a
// server around it:
//
//   - a Store holds one machine image's descriptor table, sharded by
//     segment number. Each shard publishes its descriptors as an
//     immutable RCU snapshot behind an atomic pointer (see rcu.go), and
//     that snapshot is the only copy: supervisor edits build and
//     publish a successor;
//   - a Service runs a pool of workers, each a goroutine owning its own
//     MMU pointed at an epoch-counted snapshot reader — the paper's
//     several-processors-sharing-one-descriptor-segment configuration,
//     with the descriptor state distributed as published configurations
//     instead of coherently-cached mutable core — consuming batches of
//     queries from a bounded queue with backpressure;
//   - a Server speaks HTTP/JSON on top (see http.go) with /healthz and
//     /metrics endpoints.
//
// # Consistency model
//
// The descriptor store is sharded by segment number: shard i owns the
// descriptors whose segno & (Shards-1) == i, with its own mutation
// mutex, its own epoch counter — odd while an edit of one of its
// descriptors is in flight, even when quiescent — and its own
// published snapshot. Mutations of descriptors in different shards
// proceed concurrently; an operation that ever needs to quiesce the
// whole store must take the shard locks in ascending index order.
//
// Decision workers never lock: each worker pins, per batch, the
// current snapshot of every shard it consults (one atomic pointer load
// per shard per batch) and decides against that immutable table. A
// blocked or slow mutation therefore never delays a decision — readers
// keep answering from the last published snapshot. Mutators serialize
// per shard, publish the successor snapshot, and reclaim old snapshot
// buffers only after a grace period; rcu.go documents the lifecycle
// and the reclamation rule.
//
// Each Decision reports the publication epoch of the snapshot it
// consulted as a degenerate interval (VersionLo == VersionHi, even):
// under snapshot reads every decision is a clean snapshot of the
// consulted shard, which the T12 experiment and the oracle suites
// check against the executable specification in internal/spec.
package service

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/seg"
)

// Segment describes one segment of the protection image the store
// serves decisions about.
type Segment struct {
	Name string
	// Size is the segment length in words, at most seg.MaxBound; zero
	// means one word.
	Size int

	Read, Write, Execute bool
	Brackets             core.Brackets
	// Gates is the number of gate locations (words 0..Gates-1), at most
	// seg.MaxGate and at most Size.
	Gates uint32
}

// StoreConfig sizes the store.
type StoreConfig struct {
	// Shards is the number of descriptor-store shards (a power of two,
	// at most 64); default 8. Each shard serializes mutations of its own
	// descriptors under its own lock and epoch, so decision workers and
	// supervisor edits touching different shards never contend.
	Shards int
}

// MaxShards bounds StoreConfig.Shards. Shard sets consulted by one
// decision are tracked in a 64-bit mask, and more shards than cores buy
// nothing: the lock an edit takes protects one segment's descriptor,
// not a hot global structure.
const MaxShards = 64

// MaxSegments bounds the number of segments in one image.
const MaxSegments = 256

// shard is one slice of the descriptor store: the descriptors with
// segno ≡ index (mod Shards), their mutation lock, their epoch, and
// their published RCU snapshot with its retired/free buffer lists
// (rcu.go).
type shard struct {
	// epoch is odd while a mutation of this shard's descriptors is in
	// flight, even when quiescent; epoch/2 counts completed mutations.
	// It sits first, padded to a cache line, because readers load it
	// once per pin while mutators write it.
	epoch atomic.Uint64
	_     [56]byte // keep the shards' epochs on distinct cache lines

	// snap is the current published snapshot; readers load it with a
	// single atomic operation per pin and never lock. Padded so
	// publishes do not bounce the neighbouring shard's reader lines.
	snap atomic.Pointer[snapshot]
	_    [56]byte

	mu sync.Mutex

	// retired holds predecessors awaiting their grace period; free
	// holds reclaimed SDW buffers for reuse. Both under mu, both
	// bounded (rcu.go).
	retired []*snapshot //ring:guarded mu
	free    [][]seg.SDW //ring:guarded mu
	stats   shardRCUStats
}

// shardRCUStats mirrors the shard's snapshot bookkeeping in atomics so
// RCUStats never takes a shard mutex (a blocked mutation must not
// block /metrics).
type shardRCUStats struct {
	publishes, reused, recycled, dropped atomic.Uint64
	retired, free                        atomic.Int64
}

// Store is the shared descriptor state of a decision service: one
// image's descriptor table, split into per-shard RCU snapshots through
// which all mutations are published.
type Store struct {
	shards    []shard
	shardMask uint32
	shardBits uint32 // log2(Shards): segno >> shardBits indexes a shard's SDW table

	// readers is the copy-on-write list of registered epoch-counted
	// readers (rcu.go); readersMu serializes registration only —
	// reclamation scans load the pointer without locking.
	readersMu sync.Mutex
	readers   atomic.Pointer[[]*reader]

	// publishHook, when set, is called after every snapshot publication
	// with the shard index, the edited segment number and the new (even)
	// publication epoch — still under the shard's mutation lock, so for
	// a given shard the calls arrive in strictly increasing epoch order.
	// This is the network analogue of the paper's associative-memory
	// shootdown: the tenant layer fans the event out to subscribed wire
	// sessions. The hook must not block and must not call back into the
	// store's mutation path.
	publishHook atomic.Pointer[func(shard int, segno uint32, epoch uint64)]

	// hold, when non-nil (tests), parks every edit inside its odd epoch
	// window, shard mutex held, until the channel is closed.
	hold chan struct{}

	names  map[string]uint32
	segnos []string
}

// NewStore builds a store holding the given segments, numbered in
// order from 0. Each shard's table has one entry per image segment it
// owns; segment numbers past the image decide as missing segments.
func NewStore(cfg StoreConfig, defs []Segment) (*Store, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Shards < 0 || cfg.Shards > MaxShards || cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("service: shard count %d is not a power of two in [1,%d]", cfg.Shards, MaxShards)
	}
	if len(defs) > MaxSegments {
		return nil, fmt.Errorf("service: %d segments exceed MaxSegments %d", len(defs), MaxSegments)
	}
	st := &Store{
		shards:    make([]shard, cfg.Shards),
		shardMask: uint32(cfg.Shards - 1),
		shardBits: uint32(bits.TrailingZeros32(uint32(cfg.Shards))),
		names:     make(map[string]uint32, len(defs)),
		segnos:    make([]string, len(defs)),
	}
	st.readers.Store(&[]*reader{})
	// Shard i's table covers segment numbers i, i+Shards, i+2*Shards, ...
	// below len(defs); it is filled in place before the store is shared.
	for i := range st.shards {
		st.shards[i].snap.Store(&snapshot{sdws: make([]seg.SDW, (len(defs)+cfg.Shards-1-i)/cfg.Shards)})
	}
	for i, def := range defs {
		if def.Name == "" {
			return nil, fmt.Errorf("service: segment %d has no name", i)
		}
		if _, dup := st.names[def.Name]; dup {
			return nil, fmt.Errorf("service: duplicate segment %q", def.Name)
		}
		if def.Size < 0 {
			return nil, fmt.Errorf("service: segment %q has negative size %d", def.Name, def.Size)
		}
		size := max(def.Size, 1) // a zero-length segment would make every reference a bound fault
		sdw := seg.SDW{
			Present: true, Bound: uint32(size),
			Read: def.Read, Write: def.Write, Execute: def.Execute,
			Brackets: def.Brackets, Gate: def.Gates,
		}
		if err := sdw.Validate(); err != nil {
			return nil, fmt.Errorf("service: segment %q: %w", def.Name, err)
		}
		st.shards[uint32(i)&st.shardMask].snap.Load().sdws[uint32(i)>>st.shardBits] = sdw
		st.names[def.Name] = uint32(i)
		st.segnos[i] = def.Name
	}
	return st, nil
}

// Segno resolves a segment name.
//
//ring:hotpath
func (st *Store) Segno(name string) (uint32, bool) {
	n, ok := st.names[name]
	return n, ok
}

// Segments returns the segment names in segment-number order.
func (st *Store) Segments() []string { return st.segnos }

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.shards) }

// ShardOf returns the index of the shard owning segno's descriptor.
//
//ring:hotpath
func (st *Store) ShardOf(segno uint32) int { return int(segno & st.shardMask) }

// ShardVersion returns shard i's mutation epoch: odd while an edit of
// one of its descriptors is in flight, even when quiescent.
// ShardVersion(i)/2 is the number of completed mutations in shard i.
//
//ring:hotpath
func (st *Store) ShardVersion(i int) uint64 { return st.shards[i].epoch.Load() }

// Version returns the store-wide mutation activity counter: the sum of
// the shard epochs. It is monotonic, equals twice the number of
// completed mutations when the store is quiescent, and is odd exactly
// when an odd number of edits are in flight. Per-shard clean-snapshot
// reasoning uses ShardVersion instead.
//
//ring:hotpath
func (st *Store) Version() uint64 {
	var sum uint64
	for i := range st.shards {
		sum += st.shards[i].epoch.Load()
	}
	return sum
}

// mutate applies edit to a copy of segno's descriptor under the shard
// mutex and validates the result, so a rejected edit changes nothing;
// an accepted one is published inside the shard's odd/even epoch
// window as a successor snapshot stamped with the closing (even)
// epoch. Segment numbers outside the image are rejected.
func (st *Store) mutate(segno uint32, edit func(sdw seg.SDW) (seg.SDW, error)) error {
	if segno >= uint32(len(st.segnos)) {
		return fmt.Errorf("service: segment %d is not in the image (%d segments)", segno, len(st.segnos))
	}
	shi := st.ShardOf(segno)
	sh := &st.shards[shi]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sdw, err := edit(sh.snap.Load().sdws[segno>>st.shardBits])
	if err != nil {
		return err
	}
	if err := sdw.Validate(); err != nil {
		return fmt.Errorf("service: segment %d: %w", segno, err)
	}
	epoch := sh.epoch.Add(1) // odd: edit in flight
	if st.hold != nil {
		<-st.hold
	}
	st.publishLocked(shi, segno, sdw, epoch+1)
	sh.epoch.Add(1)
	return nil
}

// SetPublishHook installs f to be called after every snapshot
// publication (shard index, edited segno, new even epoch), under the
// publishing shard's mutation lock — per-shard calls are serialized in
// strictly increasing epoch order. A nil f removes the hook. Intended
// to be set once, before mutations begin, by the layer distributing
// invalidations (internal/tenant's lease hub).
func (st *Store) SetPublishHook(f func(shard int, segno uint32, epoch uint64)) {
	if f == nil {
		st.publishHook.Store(nil)
		return
	}
	st.publishHook.Store(&f)
}

// SetBrackets replaces the flags, brackets and gate count of segno,
// keeping its bound. Supervisor functionality: every decision batch
// that starts after the call returns sees the edit.
func (st *Store) SetBrackets(segno uint32, read, write, execute bool, b core.Brackets, gates uint32) error {
	return st.mutate(segno, func(sdw seg.SDW) (seg.SDW, error) {
		if !sdw.Present {
			return sdw, fmt.Errorf("service: setbrackets on absent segment %d", segno)
		}
		sdw.Read, sdw.Write, sdw.Execute = read, write, execute
		sdw.Brackets = b
		sdw.Gate = gates
		return sdw, nil
	})
}

// Revoke clears the present flag of segno, leaving the rest of the
// descriptor intact: every subsequent reference takes a missing-segment
// fault.
func (st *Store) Revoke(segno uint32) error {
	return st.mutate(segno, func(sdw seg.SDW) (seg.SDW, error) {
		sdw.Present = false
		return sdw, nil
	})
}

// Restore re-sets the present flag of a revoked segment.
func (st *Store) Restore(segno uint32) error {
	return st.mutate(segno, func(sdw seg.SDW) (seg.SDW, error) {
		sdw.Present = true
		return sdw, nil
	})
}
