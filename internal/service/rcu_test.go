package service

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// TestReaderPinsSnapshotAcrossMutationBurst pins a shard snapshot in
// one batch's decider and keeps deciding on it while a mutation burst
// republishes the shard many times over. The pinned reader's decisions
// must stay bit-identical to its snapshot's (epoch-0) state
// throughout, and the first decision of a fresh decider must see an
// edit that has already returned. Run under -race this is also the
// test that a published table is never written: a write to a table
// the reader goroutine is still reading would be a reported data race.
func TestReaderPinsSnapshotAcrossMutationBurst(t *testing.T) {
	const perScript = 20 // mutations per segment script; 3 scripts
	st, err := NewStore(StoreConfig{Shards: 1}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	var tabs [MaxShards]*Table
	dc := st.decider(&tabs)

	probes, _ := shardProbes()
	pre := make([]Decision, len(probes))
	for i := range probes {
		dc.eval(&probes[i], &pre[i])
		if pre[i].VersionLo != 0 || pre[i].VersionHi != 0 {
			t.Fatalf("probe %d: pinned epoch interval [%d,%d], want [0,0]",
				i, pre[i].VersionLo, pre[i].VersionHi)
		}
	}

	// Burst phase: the reader goroutine re-decides continuously from its
	// pinned snapshot while this goroutine streams every script's edits
	// through the publish path.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range probes {
				var d Decision
				dc.eval(&probes[i], &d)
				if d.VersionLo != 0 || d.VersionHi != 0 || stripDecision(d) != stripDecision(pre[i]) {
					t.Errorf("probe %d: pinned decision drifted mid-burst: %+v (interval [%d,%d])",
						i, stripDecision(d), d.VersionLo, d.VersionHi)
					return
				}
			}
		}
	}()
	for g := 0; g < 3; g++ {
		for _, m := range shardScript(uint32(g), perScript) {
			if err := m(st); err != nil {
				t.Errorf("mutation: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if got, want := st.RCUStats().Publishes, uint64(3*perScript); got != want {
		t.Fatalf("publishes = %d, want %d", got, want)
	}

	// Revoke, then decide in a fresh batch: its decider pins the latest
	// snapshot and sees every edit — the "code" probe hits the revoked
	// descriptor.
	if err := st.Revoke(1); err != nil {
		t.Fatalf("post-burst mutation: %v", err)
	}
	var fresh [MaxShards]*Table
	next := st.decider(&fresh)
	var d Decision
	next.eval(&probes[4], &d)
	if want := st.ShardVersion(0); d.VersionLo != want || d.VersionHi != want {
		t.Errorf("fresh pin interval [%d,%d], want [%d,%d]", d.VersionLo, d.VersionHi, want, want)
	}
	if d.Allowed || d.ViolationKind != core.ViolationMissingSegment {
		t.Errorf("revoked segment still decides %+v through fresh snapshot", d)
	}
}

// TestSetBracketsAllocs pins the cost of publishing by copy: an edit
// allocates the successor's SDW table and its snapshot header, and
// nothing else. The replaced snapshot is left to the garbage collector.
func TestSetBracketsAllocs(t *testing.T) {
	st, err := NewStore(StoreConfig{Shards: 1}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	b := testSegments()[0].Brackets
	allocs := testing.AllocsPerRun(200, func() {
		if err := st.SetBrackets(0, true, true, false, b, 0); err != nil {
			t.Fatalf("SetBrackets: %v", err)
		}
	})
	if allocs > 2 {
		t.Errorf("SetBrackets allocates %.2f objects per edit, want at most 2 (table and snapshot header)", allocs)
	}
}
