package service

import (
	"math/bits"

	"repro/internal/core"
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
//     epoch odd, copies the current table of descriptor views into a
//     fresh slice and folds in the edited view.
//  2. Publish. One atomic pointer store makes the new table, stamped
//     with the closing (even) epoch and the edited segment number, the
//     shard's current snapshot. Then every watcher (Store.Watch) is
//     woken with a non-blocking send: a wire session announcing
//     shootdowns reads which shards moved from the tables themselves.
//  3. Freed by the garbage collector. Nothing writes the predecessor
//     again: batches that pinned it finish deciding against it, and
//     the garbage collector frees it once no batch still holds it.
//
// Readers pin per batch: the first decision consulting a shard loads
// that shard's snapshot pointer (one atomic operation) and every later
// decision of the batch reads the same table, so a batch never sees
// half of an edit. A batch's decider pins and nothing unpins: the
// decider and its table array live on the deciding caller's stack for
// one batch, so the next batch starts from a fresh decider, loads the
// current pointers and sees every edit that has already returned. The
// pointer store and load are Go sync/atomic operations, so the race
// detector sees the publication edge: a write to a published table
// would be a reported data race.
//
// Decision.VersionLo/VersionHi under snapshots: a pinned decision
// reports the (even) publication epoch of the snapshot it consulted,
// as a degenerate interval Lo == Hi. Every concurrent decision is
// therefore a clean snapshot in the T12/T13 sense — explainable at
// exactly one state of the consulted shard.

// Table is one immutable per-shard descriptor table: Views()[k] is the
// access-control view of segment number shard + k*Shards, one entry
// per image segment the shard owns, and Epoch is the shard's (even)
// mutation epoch when the table was published. The store's published
// snapshots are Tables, and so are a client replica's fetched copies of
// them. Each view is converted once, when its table is built, from a
// descriptor that holds seg.SDW's invariants; once shared a Table is
// never written again.
type Table struct {
	epoch  uint64
	edited uint32
	views  []core.SDWView
}

// NewTable returns a table of views stamped with epoch. The table owns
// views: the caller must not write the slice afterwards.
func NewTable(epoch uint64, views []core.SDWView) *Table { return &Table{epoch: epoch, views: views} }

// Epoch returns the shard epoch the table was published at.
//
//ring:hotpath
func (t *Table) Epoch() uint64 { return t.epoch }

// Edited returns the segment number whose edit published the table:
// exact, since the table and its stamp are published together. It is
// 0 for a table no edit published (a store's first tables, and a
// replica's fetched copies, which carry no segment number).
func (t *Table) Edited() uint32 { return t.edited }

// Views returns the table's descriptor views; the slice is shared and
// must not be written.
func (t *Table) Views() []core.SDWView { return t.views }

// decider returns a decider for one batch over tabs, pinning st's
// published snapshots into it on first use.
func (st *Store) decider(tabs *[MaxShards]*Table) Decider {
	dc := NewDecider(st.names, tabs[:len(st.shards)])
	dc.store = st
	return dc
}

// pin returns the table dc decides from for shard sh in its batch,
// loading the store's published snapshot on first use. No locks, no
// allocations: one atomic pointer load on first use per shard per
// batch, a plain slice read afterwards. A decider without a store
// decides from the tables its caller supplied.
//
//ring:hotpath
func (dc *Decider) pin(sh int) *Table {
	if t := dc.tabs[sh]; t != nil {
		return t
	}
	t := dc.store.Table(sh)
	dc.tabs[sh] = t
	dc.pins++
	return t
}

// pinSum pins every shard in mask (a bit per shard index) and returns
// the sum of the pinned epochs: a decision's epoch stamp.
//
//ring:hotpath
func (dc *Decider) pinSum(mask uint64) uint64 {
	var sum uint64
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &^= 1 << i
		sum += dc.pin(i).epoch
	}
	return sum
}

// view returns segno's descriptor view from its shard's table, which
// the decision has already pinned: eval stamps every decision, pinning
// each shard it consults, before it looks a descriptor up. Segment
// numbers past the image are absent, as past a descriptor segment's
// bound (seg.Table.Fetch).
//
//ring:hotpath
func (dc *Decider) view(segno uint32) core.SDWView {
	dc.lookups++
	views := dc.tabs[segno&dc.shardMask].views
	if idx := segno >> dc.shardBits; idx < uint32(len(views)) {
		return views[idx]
	}
	return core.SDWView{}
}

// Table returns shard i's current published snapshot.
//
//ring:hotpath
func (st *Store) Table(i int) *Table { return st.shards[i].snap.Load() }

// publishLocked builds and publishes the successor snapshot of shard
// index shi with v as segno's descriptor view. Caller holds sh.mu with
// the shard epoch odd; epoch is the closing (even) epoch the new
// snapshot is stamped with.
//
//ring:locked mu
func (st *Store) publishLocked(shi int, segno uint32, v core.SDWView, epoch uint64) {
	sh := &st.shards[shi]
	old := sh.snap.Load().views
	views := make([]core.SDWView, len(old))
	copy(views, old)
	views[segno>>st.shardBits] = v
	sh.snap.Store(&Table{epoch: epoch, edited: segno, views: views})
	sh.publishes.Add(1)
	for _, ch := range *st.watchers.Load() {
		select {
		case ch <- struct{}{}:
		default: // a wake is already pending
		}
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
