package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seg"
)

// testSegments is the image most service tests run against:
//
//	0 "data"   R W -  brackets (2,4,4)          — a writable data segment
//	1 "code"   R - E  brackets (1,3,5) gates 2  — a gated procedure segment
//	2 "secret" R - -  brackets (0,1,1)          — readable only near ring 0
func testSegments() []Segment {
	return []Segment{
		{Name: "data", Size: 16, Read: true, Write: true,
			Brackets: core.Brackets{R1: 2, R2: 4, R3: 4}},
		{Name: "code", Size: 32, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: 2},
		{Name: "secret", Size: 8, Read: true,
			Brackets: core.Brackets{R1: 0, R2: 1, R3: 1}},
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func ring(r core.Ring) *Ring { return &r }

// TestDecisions checks the decision procedure for every op against the
// paper's figures, through the full Submit path.
func TestDecisions(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})

	cases := []struct {
		name string
		q    Query
		want Decision
	}{
		{"read data in bracket",
			Query{Op: OpAccess, Ring: 4, Segment: "data", Wordno: 5, Kind: core.AccessRead},
			Decision{Allowed: true}},
		{"read data above bracket",
			Query{Op: OpAccess, Ring: 5, Segment: "data", Kind: core.AccessRead},
			Decision{ViolationKind: core.ViolationReadBracket}},
		{"write data in bracket",
			Query{Op: OpAccess, Ring: 2, Segment: "data", Kind: core.AccessWrite},
			Decision{Allowed: true}},
		{"write data above bracket",
			Query{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessWrite},
			Decision{ViolationKind: core.ViolationWriteBracket}},
		{"write read-only segment",
			Query{Op: OpAccess, Ring: 0, Segment: "secret", Kind: core.AccessWrite},
			Decision{ViolationKind: core.ViolationNoWrite}},
		{"fetch code in bracket",
			Query{Op: OpAccess, Ring: 2, Segment: "code", Kind: core.AccessExecute},
			Decision{Allowed: true}},
		{"fetch code below bracket",
			Query{Op: OpAccess, Ring: 0, Segment: "code", Kind: core.AccessExecute},
			Decision{ViolationKind: core.ViolationExecuteBracket}},
		{"fetch non-executable segment",
			Query{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessExecute},
			Decision{ViolationKind: core.ViolationNoExecute}},
		{"read beyond bound",
			Query{Op: OpAccess, Ring: 3, Segment: "data", Wordno: 16, Kind: core.AccessRead},
			Decision{ViolationKind: core.ViolationBound}},
		{"read unknown segno",
			Query{Op: OpAccess, Ring: 3, Segno: 99, Kind: core.AccessRead},
			Decision{ViolationKind: core.ViolationMissingSegment}},

		{"downward call through gate",
			Query{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1},
			Decision{Allowed: true, Outcome: "downward call", NewRing: 3}},
		{"same-ring call to gate",
			Query{Op: OpCall, Ring: 2, Segment: "code", Wordno: 1},
			Decision{Allowed: true, Outcome: "same-ring call", NewRing: 2}},
		{"call to non-gate word",
			Query{Op: OpCall, Ring: 2, Segment: "code", Wordno: 5},
			Decision{ViolationKind: core.ViolationNotAGate}},
		{"same-segment call ignores gate list",
			Query{Op: OpCall, Ring: 2, Segment: "code", Wordno: 5, SameSegment: true},
			Decision{Allowed: true, Outcome: "same-ring call", NewRing: 2}},
		{"upward call traps",
			Query{Op: OpCall, Ring: 0, Segment: "code", Wordno: 0},
			Decision{Allowed: true, Outcome: "upward call (trap)", NewRing: 1, Trapped: true}},
		{"call from above gate extension",
			Query{Op: OpCall, Ring: 6, Segment: "code", Wordno: 0},
			Decision{ViolationKind: core.ViolationGateExtension}},
		{"disguised upward call",
			Query{Op: OpCall, Ring: 2, Segment: "code", Wordno: 0, EffRing: ring(4)},
			Decision{ViolationKind: core.ViolationRingAlarm}},

		{"same-ring return",
			Query{Op: OpReturn, Ring: 3, Segment: "code"},
			Decision{Allowed: true, Outcome: "same-ring return", NewRing: 3}},
		{"upward return",
			Query{Op: OpReturn, Ring: 2, Segment: "code", EffRing: ring(3)},
			Decision{Allowed: true, Outcome: "upward return", NewRing: 3}},
		{"downward return traps",
			Query{Op: OpReturn, Ring: 3, Segment: "code", EffRing: ring(1)},
			Decision{Allowed: true, Outcome: "downward return (trap)", NewRing: 1, Trapped: true}},

		{"effective ring over chain",
			Query{Op: OpEffRing, Ring: 2, Chain: []ChainStep{
				{PR: true, Ring: 3},
				{Ring: 1, Segno: 0}, // indirect word in "data": R1=2
			}},
			Decision{Allowed: true, NewRing: 3}},
		{"chain read violation",
			Query{Op: OpEffRing, Ring: 4, Chain: []ChainStep{{Ring: 0, Segno: 2}}},
			Decision{ViolationKind: core.ViolationReadBracket}},
	}

	queries := make([]Query, len(cases))
	for i, c := range cases {
		queries[i] = c.q
	}
	ds, err := svc.Submit(context.Background(), queries)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i, c := range cases {
		got := ds[i]
		if got.Err != "" {
			t.Errorf("%s: unexpected query error %q", c.name, got.Err)
			continue
		}
		if got.VersionLo != 0 || got.VersionHi != 0 {
			t.Errorf("%s: version interval [%d,%d] on an unmutated store", c.name, got.VersionLo, got.VersionHi)
		}
		if want := wantShard(svc.Store(), c.q); got.Shard != want {
			t.Errorf("%s: shard = %d, want %d", c.name, got.Shard, want)
		}
		want := c.want
		want.Violation = want.ViolationKind.String()
		if want.ViolationKind == core.ViolationNone {
			want.Violation = ""
		}
		got.VersionLo, got.VersionHi, got.Worker, got.Shard = 0, 0, 0, 0
		if got != want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, want)
		}
	}
}

// wantShard computes, independently of evalQuery, the shard a
// well-formed query's decision must report: the target segment's shard,
// or for effring the single shard its indirect steps consult (-1 when
// none or several).
func wantShard(st *Store, q Query) int {
	segno := q.Segno
	if q.Segment != "" {
		if n, ok := st.Segno(q.Segment); ok {
			segno = n
		}
	}
	if q.Op != OpEffRing {
		return st.ShardOf(segno)
	}
	sh := -1
	for _, step := range q.Chain {
		if step.PR {
			continue
		}
		s := st.ShardOf(step.Segno)
		if sh == -1 {
			sh = s
		} else if sh != s {
			return -1
		}
	}
	return sh
}

// TestQueryErrors checks that malformed queries come back as Err, not
// violations.
func TestQueryErrors(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	bad := []Query{
		{Op: OpAccess, Ring: 3, Segment: "nonesuch", Kind: core.AccessRead},
		{Op: "frobnicate", Ring: 3, Segment: "data"},
		{Op: OpAccess, Ring: 8, Segment: "data", Kind: core.AccessRead},
		{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessKind(9)},
		{Op: OpCall, Ring: 3, Segment: "code", EffRing: ring(12)},
		{Op: OpEffRing, Ring: 3, Chain: []ChainStep{{PR: true, Ring: 9}}},
	}
	ds, err := svc.Submit(context.Background(), bad)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i, d := range ds {
		if d.Err == "" {
			t.Errorf("query %d: want Err, got %+v", i, d)
		}
		if d.Allowed {
			t.Errorf("query %d: malformed query allowed", i)
		}
		if d.Shard != -1 || d.VersionLo != 0 || d.VersionHi != 0 {
			t.Errorf("query %d: malformed query reports shard %d interval [%d,%d]; want no interval",
				i, d.Shard, d.VersionLo, d.VersionHi)
		}
	}
	if got := svc.Metrics().errors.Load(); got != uint64(len(bad)) {
		t.Errorf("errors counter = %d, want %d", got, len(bad))
	}
}

// TestBatchLimit checks the per-batch cap.
func TestBatchLimit(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, BatchLimit: 2})
	qs := make([]Query, 3)
	for i := range qs {
		qs[i] = Query{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}
	}
	if _, err := svc.Submit(context.Background(), qs); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("Submit(3) with BatchLimit 2: err = %v, want ErrBatchTooLarge", err)
	}
	if _, err := svc.Submit(context.Background(), qs[:2]); err != nil {
		t.Fatalf("Submit(2): %v", err)
	}
}

// TestBackpressure fills the bounded queue behind a held worker and
// checks that Submit sheds with ErrQueueFull, then that held work
// completes once released.
func TestBackpressure(t *testing.T) {
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	hold := make(chan struct{})
	ack := make(chan struct{}, 4)
	svc.hold, svc.holdAck = hold, ack
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	defer release() // a Fatal below must not leave Close waiting on a parked worker

	qs := []Query{{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}}
	results := make(chan error, 2)
	submit := func() {
		_, err := svc.Submit(context.Background(), qs)
		results <- err
	}

	// First batch: the worker pulls it and parks on hold (the ack tells
	// us the park has happened, so this cannot race the next submit).
	go submit()
	<-ack

	// Second batch: sits in the queue; the worker cannot pull it.
	go submit()
	waitFor(t, "second batch to queue", func() bool { return svc.QueueLen() == 1 })

	// Third batch: queue full — backpressure.
	if _, err := svc.Submit(context.Background(), qs); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on full queue: err = %v, want ErrQueueFull", err)
	}
	if got := svc.Snapshot().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}

	// Release the worker: both held batches complete without error.
	release()
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Errorf("held batch %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("held batches did not complete after release")
		}
	}
}

// TestSubmitContextCancelled checks that an abandoned wait returns the
// context error while the batch still completes (buffered reply).
func TestSubmitContextCancelled(t *testing.T) {
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hold := make(chan struct{})
	svc.hold = hold

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := []Query{{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}}
	if _, err := svc.Submit(ctx, qs); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// The worker must still be able to drain the abandoned batch and
	// exit: Close would hang otherwise.
	close(hold)
	svc.Close()
}

// TestGracefulShutdown checks that Close drains queued work and that
// Submit afterwards reports ErrClosed.
func TestGracefulShutdown(t *testing.T) {
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, Config{Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	qs := []Query{{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := svc.Submit(context.Background(), qs)
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}()
	}
	wg.Wait() // all in-flight work done before Close
	svc.Close()
	svc.Close() // idempotent

	for _, err := range errs {
		if err != nil {
			t.Errorf("pre-close Submit: %v", err)
		}
	}
	if _, err := svc.Submit(context.Background(), qs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// shardScript is segment segno's mutation sequence for the sharded
// oracle test: brackets or the present bit of one descriptor, toggled
// back and forth. Each segment of testSegments lives in its own shard
// (of 4), so shard segno's epoch counts exactly these mutations.
func shardScript(segno uint32, n int) []func(e Editor) error {
	muts := make([]func(e Editor) error, n)
	for i := range muts {
		alt := i%2 == 0
		switch segno {
		case 0: // data: brackets swing between wide and narrow
			b := core.Brackets{R1: 2, R2: 4, R3: 4}
			if alt {
				b = core.Brackets{R1: 0, R2: 1, R3: 1}
			}
			muts[i] = func(e Editor) error { return e.SetBrackets(0, true, true, false, b, 0) }
		case 1: // code: presence toggles
			if alt {
				muts[i] = func(e Editor) error { return e.Revoke(1) }
			} else {
				muts[i] = func(e Editor) error { return e.Restore(1) }
			}
		default: // secret: read bracket widens and narrows
			b := core.Brackets{R1: 0, R2: 1, R3: 1}
			if alt {
				b = core.Brackets{R1: 0, R2: 3, R3: 3}
			}
			muts[i] = func(e Editor) error { return e.SetBrackets(2, true, false, false, b, 0) }
		}
	}
	return muts
}

// shardProbes is the fixed probe batch for the sharded oracle test,
// every probe consulting exactly one segment; probeSegno gives the
// segment (= shard, with 4 shards) each probe targets.
func shardProbes() (probes []Query, probeSegno []uint32) {
	probes = []Query{
		{Op: OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: core.AccessRead},
		{Op: OpAccess, Ring: 1, Segment: "data", Kind: core.AccessWrite},
		{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessWrite},
		{Op: OpEffRing, Ring: 1, Chain: []ChainStep{{Ring: 0, Segno: 0}}},
		{Op: OpAccess, Ring: 2, Segment: "code", Kind: core.AccessExecute},
		{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1},
		{Op: OpCall, Ring: 0, Segment: "code", Wordno: 0},
		{Op: OpReturn, Ring: 2, Segment: "code", EffRing: ring(3)},
		{Op: OpAccess, Ring: 1, Segment: "secret", Kind: core.AccessRead},
		{Op: OpAccess, Ring: 3, Segment: "secret", Kind: core.AccessRead},
	}
	probeSegno = []uint32{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	return probes, probeSegno
}

// stripDecision clears the fields that legitimately differ between two
// decisions of one probe at different epochs or from different workers.
func stripDecision(d Decision) Decision {
	d.VersionLo, d.VersionHi, d.Worker = 0, 0, 0
	return d
}

// TestSubmitIntoZeroAlloc is the hot-path allocation budget: one
// warm-pool SubmitInto round trip — queue, decide, reply — performs
// zero heap allocations, on the submitter and worker side combined.
// CI runs this as its allocation-regression gate.
func TestSubmitIntoZeroAlloc(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	ctx := context.Background()
	queries := []Query{{Op: OpAccess, Ring: 4, Segment: "data", Wordno: 5, Kind: core.AccessRead}}
	dst := make([]Decision, len(queries))
	for i := 0; i < 8; i++ { // warm the descriptor pool and the SDW cache
		if err := svc.SubmitInto(ctx, queries, dst); err != nil {
			t.Fatalf("warm-up SubmitInto: %v", err)
		}
	}
	if !dst[0].Allowed || dst[0].Shard != 0 {
		t.Fatalf("warm-up decision wrong: %+v", dst[0])
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := svc.SubmitInto(ctx, queries, dst); err != nil {
			t.Fatalf("SubmitInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("SubmitInto allocates %.2f objects per batch; the decision hot path budget is 0", allocs)
	}
	// A denial must stay allocation-free too (the violation string is
	// interned, not formatted).
	denied := []Query{{Op: OpAccess, Ring: 7, Segment: "secret", Kind: core.AccessRead}}
	for i := 0; i < 8; i++ {
		if err := svc.SubmitInto(ctx, denied, dst); err != nil {
			t.Fatalf("warm-up SubmitInto: %v", err)
		}
	}
	if dst[0].Allowed || dst[0].ViolationKind != core.ViolationReadBracket {
		t.Fatalf("warm-up denial wrong: %+v", dst[0])
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := svc.SubmitInto(ctx, denied, dst); err != nil {
			t.Fatalf("SubmitInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("denied SubmitInto allocates %.2f objects per batch; budget is 0", allocs)
	}
}

// TestSubmitIntoShortDst checks the destination-length guard.
func TestSubmitIntoShortDst(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	queries := make([]Query, 2)
	for i := range queries {
		queries[i] = Query{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}
	}
	if err := svc.SubmitInto(context.Background(), queries, make([]Decision, 1)); err == nil {
		t.Fatal("SubmitInto with short dst: want error, got nil")
	}
}

// TestStoreShardConfig checks shard-count validation and defaulting.
func TestStoreShardConfig(t *testing.T) {
	for _, bad := range []StoreConfig{
		{Shards: 3},
		{Shards: -1},
		{Shards: MaxShards * 2},
	} {
		if _, err := NewStore(bad, testSegments()); err == nil {
			t.Errorf("NewStore(Shards=%d): want error, got nil", bad.Shards)
		}
	}
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if st.Shards() != 8 {
		t.Errorf("default Shards() = %d, want 8", st.Shards())
	}
	if got := st.ShardOf(11); got != 3 {
		t.Errorf("ShardOf(11) = %d, want 3", got)
	}
	one, err := NewStore(StoreConfig{Shards: 1}, testSegments())
	if err != nil {
		t.Fatalf("NewStore(Shards=1): %v", err)
	}
	if one.Shards() != 1 || one.ShardOf(11) != 0 {
		t.Errorf("single-shard store: Shards()=%d ShardOf(11)=%d", one.Shards(), one.ShardOf(11))
	}
}

// TestNewStoreHeap bounds what one store costs: its descriptor tables
// and bookkeeping, sized by the image, with no backing core.
func TestNewStoreHeap(t *testing.T) {
	defs := make([]Segment, 200)
	for i := range defs {
		defs[i] = Segment{Name: fmt.Sprintf("seg%03d", i), Size: 4096, Read: true,
			Brackets: core.Brackets{R1: 1, R2: 4, R3: 5}, Gates: 4}
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewStore(StoreConfig{}, defs); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := res.AllocedBytesPerOp()
	if got >= 1<<20 {
		t.Errorf("NewStore of a 200-segment image allocates %d bytes, want under 1 MiB", got)
	}
	t.Logf("NewStore of a 200-segment image: %d bytes, %d allocations", got, res.AllocsPerOp())
}

// TestGateCountBeyondField checks that a gate count the SDW's 14-bit
// GATE field cannot hold is rejected, at load and by an edit, instead
// of being kept unencoded (or, through core, truncated).
func TestGateCountBeyondField(t *testing.T) {
	big := []Segment{{Name: "wide", Size: 30000, Read: true, Execute: true,
		Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: 20000}}
	if _, err := NewStore(StoreConfig{}, big); err == nil {
		t.Error("NewStore accepted 20000 gates")
	}

	big[0].Gates = seg.MaxGate
	st, err := NewStore(StoreConfig{}, big)
	if err != nil {
		t.Fatalf("NewStore with MaxGate gates: %v", err)
	}
	if err := st.SetBrackets(0, true, false, true, big[0].Brackets, seg.MaxGate+1); err == nil {
		t.Error("SetBrackets accepted a gate count past the GATE field")
	}
	if got := st.ShardVersion(0); got != 0 {
		t.Errorf("rejected edit moved the shard epoch to %d", got)
	}
	svc, err := New(st, Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	ds, err := svc.Submit(context.Background(), []Query{{Op: OpCall, Ring: 4, Segno: 0, Wordno: 5000}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !ds[0].Allowed || ds[0].Outcome != "downward call" {
		t.Errorf("call to gate 5000 of %d: %+v", seg.MaxGate, ds[0])
	}
}

// TestMetricsSnapshot checks the /metrics counters after known traffic.
func TestMetricsSnapshot(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	qs := []Query{
		{Op: OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead},   // allowed
		{Op: OpAccess, Ring: 5, Segment: "data", Kind: core.AccessRead},   // read bracket fault
		{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1},                 // allowed
		{Op: OpReturn, Ring: 3, Segment: "code", EffRing: ring(1)},        // trap
		{Op: OpEffRing, Ring: 1, Chain: []ChainStep{{Ring: 0, Segno: 0}}}, // allowed
		{Op: OpAccess, Ring: 3, Segment: "nonesuch"},                      // error
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(context.Background(), qs); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	snap := svc.Snapshot()
	if snap.Workers != 2 || snap.QueueCap != 64 {
		t.Errorf("shape: workers=%d cap=%d", snap.Workers, snap.QueueCap)
	}
	if snap.Batches != 3 || snap.Queries != 18 {
		t.Errorf("batches=%d queries=%d, want 3/18", snap.Batches, snap.Queries)
	}
	if snap.Allowed != 12 || snap.Denied != 3 || snap.Errors != 3 || snap.Trapped != 3 {
		t.Errorf("allowed=%d denied=%d errors=%d trapped=%d, want 12/3/3/3",
			snap.Allowed, snap.Denied, snap.Errors, snap.Trapped)
	}
	if snap.Ops[string(OpAccess)] != 9 || snap.Ops[string(OpCall)] != 3 ||
		snap.Ops[string(OpReturn)] != 3 || snap.Ops[string(OpEffRing)] != 3 {
		t.Errorf("per-op counts wrong: %v", snap.Ops)
	}
	if snap.Faults[metricKey(core.ViolationReadBracket.String())] != 3 {
		t.Errorf("faults: %v", snap.Faults)
	}
	if snap.Reads.Pins == 0 || snap.Reads.Lookups == 0 {
		t.Errorf("snapshot-read counters not exercised: %+v", snap.Reads)
	}
	if snap.Reads.Lookups < snap.Reads.Pins {
		t.Errorf("lookups %d < pins %d; every pin serves at least one lookup",
			snap.Reads.Lookups, snap.Reads.Pins)
	}
	if len(snap.PerWorkerReads) != 2 {
		t.Errorf("per-worker read entries = %d, want 2", len(snap.PerWorkerReads))
	}
	if snap.RCU.Readers != 2 {
		t.Errorf("registered readers = %d, want 2 (one per worker)", snap.RCU.Readers)
	}
	if len(snap.LatencyNs) == 0 {
		t.Error("latency histogram empty")
	}
	var latTotal uint64
	for _, b := range snap.LatencyNs {
		latTotal += b.Count
	}
	if latTotal != snap.Batches {
		t.Errorf("latency histogram sums to %d, want %d batches", latTotal, snap.Batches)
	}
	if len(snap.Events) == 0 {
		t.Error("no trace events recorded")
	}
}
