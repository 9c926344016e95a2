package service

import (
	"math/bits"

	"repro/internal/seg"
)

// RCU snapshot publication.
//
// The paper's validation hardware never locks the descriptor segment:
// a reference is checked against whatever descriptor words the
// processor observes. This file takes the software consequence
// seriously — access validation is a pure function of descriptor
// state, so the store publishes that state as immutable per-shard
// snapshots and decisions are evaluated against a snapshot without
// acquiring any store lock.
//
// Lifecycle of a shard snapshot:
//
//  1. Build. A mutator, holding the shard mutex, edits and validates a
//     copy of the descriptor's snapshot entry; then, with the shard
//     epoch odd, copies the current SDW table into a fresh slice and
//     folds in the edited descriptor.
//  2. Publish. One atomic pointer store makes the new table, stamped
//     with the closing (even) epoch, the shard's current snapshot.
//  3. Freed by the garbage collector. Nothing writes the predecessor
//     again: batches that pinned it finish deciding against it, and
//     the garbage collector frees it once no batch still holds it.
//
// Readers pin per batch: the first lookup in a shard loads that
// shard's snapshot pointer (one atomic operation) and every later
// lookup of the batch reads the same table, so a batch never sees half
// of an edit. unpin drops the views at the end of the batch, so the
// next batch loads the current pointers and sees every edit that has
// already returned. The pointer store and load are Go sync/atomic
// operations, so the race detector sees the publication edge: a write
// to a published table would be a reported data race.
//
// Decision.VersionLo/VersionHi under snapshots: a pinned decision
// reports the (even) publication epoch of the snapshot it consulted,
// as a degenerate interval Lo == Hi. Every concurrent decision is
// therefore a clean snapshot in the T12/T13 sense — explainable at
// exactly one state of the consulted shard.

// Table is one immutable per-shard descriptor table: SDWs()[k] is the
// descriptor of segment number shard + k*Shards, one entry per image
// segment the shard owns, and Epoch is the shard's (even) mutation
// epoch when the table was published. The store's published snapshots
// are Tables, and so are a client replica's fetched copies of them.
// Once shared a Table is never written again.
type Table struct {
	epoch uint64
	sdws  []seg.SDW
}

// NewTable returns a table of sdws stamped with epoch. The table owns
// sdws: the caller must not write the slice afterwards.
func NewTable(epoch uint64, sdws []seg.SDW) *Table { return &Table{epoch: epoch, sdws: sdws} }

// Epoch returns the shard epoch the table was published at.
//
//ring:hotpath
func (t *Table) Epoch() uint64 { return t.epoch }

// SDWs returns the table's descriptors; the slice is shared and must
// not be written.
func (t *Table) SDWs() []seg.SDW { return t.sdws }

// Tables is a set of per-shard descriptor tables decisions are
// evaluated over: the store's published snapshots, or a client's
// replica of them. Shards is a power of two, and shard i holds the
// descriptors of segment numbers congruent to i modulo Shards.
type Tables interface {
	Shards() int
	// Table returns shard i's current table.
	Table(i int) *Table
	// Segno resolves a segment name.
	Segno(name string) (uint32, bool)
}

// reader is the read side of a Tables for one decider: its per-batch
// pinned tables. It implements mmu.SDWSource, so an MMU pointed at the
// reader resolves every descriptor fetch from the pinned tables. Used
// only by the decider's owner.
type reader struct {
	src       Tables
	shardMask uint32
	shardBits uint32 // log2(Shards): segno >> shardBits indexes a shard's table
	// views[i] is the table pinned for shard i in the current batch;
	// nil when not yet pinned this batch.
	views []*Table
	// pins and lookups count table pins and descriptor lookups —
	// hot-path counters, read for /metrics under the processor's
	// mutex.
	pins, lookups uint64
}

// newReader returns a read side over src for one decider.
func newReader(src Tables) *reader {
	n := src.Shards()
	return &reader{
		src:       src,
		shardMask: uint32(n - 1),
		shardBits: uint32(bits.TrailingZeros32(uint32(n))),
		views:     make([]*Table, n),
	}
}

// pin returns the table this reader uses for shard sh, loading it on
// first use in the current batch. No locks, no allocations: one
// Tables.Table call on first use per shard per batch, a plain slice
// read afterwards.
//
//ring:hotpath
//ring:pins
func (r *reader) pin(sh int) *Table {
	if s := r.views[sh]; s != nil {
		return s
	}
	s := r.src.Table(sh)
	r.views[sh] = s
	r.pins++
	return s
}

// unpin ends the batch: drop every pinned view, so the next batch
// loads the current tables.
//
//ring:hotpath
func (r *reader) unpin() {
	clear(r.views)
}

// pinSum pins every shard in mask (a bit per shard index) and returns
// the sum of the pinned epochs: a decision's epoch stamp.
//
//ring:hotpath
//ring:pins
func (r *reader) pinSum(mask uint64) uint64 {
	var sum uint64
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &^= 1 << i
		sum += r.pin(i).epoch
	}
	return sum
}

// LookupSDW implements mmu.SDWSource over the pinned tables:
// shard-route the segment number, pin that shard's table if this batch
// has not yet, and index the immutable SDW table. Segment numbers past
// the image are absent, as past a descriptor segment's bound
// (seg.Table.Fetch).
//
//ring:hotpath
//ring:pins
func (r *reader) LookupSDW(segno uint32) (seg.SDW, error) {
	r.lookups++
	s := r.pin(int(segno & r.shardMask))
	idx := int(segno >> r.shardBits)
	if idx >= len(s.sdws) {
		return seg.SDW{}, nil
	}
	return s.sdws[idx], nil
}

// Table returns shard i's current published snapshot.
//
//ring:hotpath
func (st *Store) Table(i int) *Table { return st.shards[i].snap.Load() }

// publishLocked builds and publishes the successor snapshot of shard
// index shi with sdw as segno's descriptor. Caller holds sh.mu with
// the shard epoch odd; epoch is the closing (even) epoch the new
// snapshot is stamped with.
//
//ring:locked mu
func (st *Store) publishLocked(shi int, segno uint32, sdw seg.SDW, epoch uint64) {
	sh := &st.shards[shi]
	old := sh.snap.Load().sdws
	sdws := make([]seg.SDW, len(old))
	copy(sdws, old)
	sdws[segno>>st.shardBits] = sdw
	sh.snap.Store(&Table{epoch: epoch, sdws: sdws})
	sh.publishes.Add(1)
	if hook := st.publishHook.Load(); hook != nil {
		// Still under sh.mu: hook calls for one shard arrive in strictly
		// increasing epoch order, so a shootdown always names the epoch
		// whose publication it follows.
		(*hook)(shi, segno, epoch)
	}
}

// RCUSnapshot reports the descriptor store's snapshot publication,
// summed over shards.
type RCUSnapshot struct {
	// Publishes counts snapshots published (one per completed
	// mutation).
	Publishes uint64 `json:"publishes"`
}

// RCUStats sums the per-shard publish counters. Lock-free: safe to
// call while a mutation is blocked mid-critical-section.
func (st *Store) RCUStats() RCUSnapshot {
	var out RCUSnapshot
	for i := range st.shards {
		out.Publishes += st.shards[i].publishes.Load()
	}
	return out
}
