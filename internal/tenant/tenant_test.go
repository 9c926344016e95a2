package tenant

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// testImage mirrors the service package's test segments so decisions
// taken through a tenant match the ones pinned there.
func testImage() []service.Segment {
	return []service.Segment{
		{Name: "data", Size: 16, Read: true, Write: true,
			Brackets: core.Brackets{R1: 2, R2: 4, R3: 4}},
		{Name: "code", Size: 32, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: 2},
		{Name: "secret", Size: 8, Read: true,
			Brackets: core.Brackets{R1: 0, R2: 1, R3: 1}},
	}
}

func newTestRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r := NewRegistry(cfg)
	t.Cleanup(r.Close)
	return r
}

func mustLoad(t *testing.T, r *Registry, name string, cfg TenantConfig) *Tenant {
	t.Helper()
	tn, err := r.Load(name, testImage(), cfg)
	if err != nil {
		t.Fatalf("Load(%q): %v", name, err)
	}
	return tn
}

func TestLoadAndSubmit(t *testing.T) {
	r := newTestRegistry(t, Config{})
	tn := mustLoad(t, r, "alpha", TenantConfig{Workers: 1})

	if got := tn.State(); got != StateActive {
		t.Fatalf("state after load = %v, want active", got)
	}
	ds, err := tn.Submit(context.Background(), []service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 7, Segment: "secret", Kind: core.AccessRead},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !ds[0].Allowed || ds[1].Allowed {
		t.Errorf("decisions: %+v", ds)
	}
	if r.Len() != 1 || r.WorkersInUse() != 1 {
		t.Errorf("registry: len %d workers %d, want 1/1", r.Len(), r.WorkersInUse())
	}
}

func TestDuplicateTenantName(t *testing.T) {
	r := newTestRegistry(t, Config{})
	mustLoad(t, r, "dup", TenantConfig{Workers: 1})

	if _, err := r.Load("dup", testImage(), TenantConfig{Workers: 1}); !errors.Is(err, ErrTenantExists) {
		t.Errorf("duplicate load: %v, want ErrTenantExists", err)
	}
	// The failed duplicate must not have touched the budget.
	if got := r.WorkersInUse(); got != 1 {
		t.Errorf("workers in use after duplicate = %d, want 1", got)
	}

	// Concurrent loads of one fresh name: exactly one wins.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Load("race", testImage(), TenantConfig{Workers: 1})
		}(i)
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrTenantExists):
			t.Errorf("concurrent load: %v, want nil or ErrTenantExists", err)
		}
	}
	if won != 1 {
		t.Errorf("%d concurrent loads won the name, want exactly 1", won)
	}
}

func TestBadTenantName(t *testing.T) {
	r := newTestRegistry(t, Config{})
	for _, name := range []string{"", "a/b", "a b", "a\tb", "a\nb", string(make([]byte, 65)),
		"a?b", "a#b", "a%41", "a%2Fb", ".", ".."} {
		if _, err := r.Load(name, testImage(), TenantConfig{}); !errors.Is(err, ErrBadName) {
			t.Errorf("Load(%q): %v, want ErrBadName", name, err)
		}
	}
}

func TestWorkerBudget(t *testing.T) {
	r := newTestRegistry(t, Config{WorkerBudget: 3})
	mustLoad(t, r, "a", TenantConfig{Workers: 2})

	if _, err := r.Load("b", testImage(), TenantConfig{Workers: 2}); !errors.Is(err, ErrWorkerBudget) {
		t.Fatalf("over-budget load: %v, want ErrWorkerBudget", err)
	}
	// Evicting returns the quota; the same load then fits.
	if err := r.Evict("a"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if got := r.WorkersInUse(); got != 0 {
		t.Fatalf("workers in use after evict = %d, want 0", got)
	}
	mustLoad(t, r, "b", TenantConfig{Workers: 2})
}

// TestHugeWorkerQuota checks that a quota far past the budget is
// refused before anything is sized by it: service.New makes a channel
// and a processor per worker, so building first would panic or exhaust
// memory. The second load would overflow workersInUse+Workers.
func TestHugeWorkerQuota(t *testing.T) {
	r := newTestRegistry(t, Config{WorkerBudget: 4})
	if _, err := r.Load("a", testImage(), TenantConfig{Workers: math.MaxInt}); !errors.Is(err, ErrWorkerBudget) {
		t.Fatalf("first load: %v, want ErrWorkerBudget", err)
	}
	mustLoad(t, r, "b", TenantConfig{Workers: 1})
	if _, err := r.Load("a", testImage(), TenantConfig{Workers: math.MaxInt}); !errors.Is(err, ErrWorkerBudget) {
		t.Fatalf("load after one: %v, want ErrWorkerBudget", err)
	}
	if got := r.WorkersInUse(); got != 1 {
		t.Fatalf("workers in use = %d, want 1", got)
	}
}

func TestMaxTenants(t *testing.T) {
	r := newTestRegistry(t, Config{MaxTenants: 2})
	mustLoad(t, r, "a", TenantConfig{Workers: 1})
	mustLoad(t, r, "b", TenantConfig{Workers: 1})
	if _, err := r.Load("c", testImage(), TenantConfig{Workers: 1}); !errors.Is(err, ErrTooManyTenants) {
		t.Errorf("third load: %v, want ErrTooManyTenants", err)
	}
}

func TestSealFreezesMutationsNotDecisions(t *testing.T) {
	r := newTestRegistry(t, Config{})
	tn := mustLoad(t, r, "frozen", TenantConfig{Workers: 1})

	if err := r.Seal("frozen"); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if got := tn.State(); got != StateSealed {
		t.Fatalf("state after seal = %v", got)
	}
	// Decisions keep flowing.
	if _, err := tn.Submit(context.Background(), []service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead},
	}); err != nil {
		t.Errorf("Submit on sealed tenant: %v", err)
	}
	// Mutations are rejected and counted.
	if err := tn.mutable(); !errors.Is(err, ErrSealed) {
		t.Errorf("mutable on sealed tenant: %v, want ErrSealed", err)
	}
	if got := tn.DeniedMutations(); got != 1 {
		t.Errorf("denied mutations = %d, want 1", got)
	}
	// Sealing twice fails; sealing an unknown tenant is not found.
	if err := r.Seal("frozen"); err == nil {
		t.Error("second Seal: want error")
	}
	if err := r.Seal("ghost"); !errors.Is(err, ErrTenantNotFound) {
		t.Errorf("Seal(ghost): %v, want ErrTenantNotFound", err)
	}
	// A sealed tenant can still be evicted.
	if err := r.Evict("frozen"); err != nil {
		t.Errorf("Evict sealed: %v", err)
	}
}

// TestEvictWhileReadersPinned evicts a tenant while decision batches
// are in flight, each worker holding its snapshot pins for the batch:
// every submit must answer or fail with a lifecycle error, and Evict
// must return only after the drain, leaving the tenant evicted and
// unresolvable.
func TestEvictWhileReadersPinned(t *testing.T) {
	r := newTestRegistry(t, Config{})
	tn := mustLoad(t, r, "busy", TenantConfig{Workers: 4, QueueDepth: 32})

	// Hammer the tenant from several goroutines so batches are pinned
	// (each worker pins one snapshot reader per shard per batch) while
	// the eviction races them.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			queries := []service.Query{
				{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead},
				{Op: service.OpCall, Ring: 4, Segment: "code", Wordno: 1},
			}
			dst := make([]service.Decision, len(queries))
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := tn.SubmitInto(ctx, queries, dst)
				switch {
				case err == nil,
					errors.Is(err, service.ErrQueueFull),
					errors.Is(err, service.ErrClosed),
					errors.Is(err, ErrDraining),
					errors.Is(err, ErrTenantNotFound):
				default:
					t.Errorf("SubmitInto during drain: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the load build
	if err := r.Evict("busy"); err != nil {
		t.Fatalf("Evict under load: %v", err)
	}
	close(stop)
	wg.Wait()

	if got := tn.State(); got != StateEvicted {
		t.Errorf("state after evict = %v, want evicted", got)
	}
	if _, ok := r.Get("busy"); ok {
		t.Error("evicted tenant still resolvable")
	}
	if got := r.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// A second evict of the gone name is not found.
	if err := r.Evict("busy"); !errors.Is(err, ErrTenantNotFound) {
		t.Errorf("second Evict: %v, want ErrTenantNotFound", err)
	}
}

func TestCorruptImage(t *testing.T) {
	cases := map[string]string{
		"not json":         `{nope`,
		"no segments":      `{"segments": []}`,
		"invalid brackets": `{"segments": [{"name": "x", "size": 4, "read": true, "r1": 5, "r2": 2, "r3": 1}]}`,
	}
	for name, body := range cases {
		if _, err := ParseImage([]byte(body)); err == nil {
			t.Errorf("ParseImage(%s): want error", name)
		}
	}
	if _, err := LoadImageFile("/nonexistent/image.json"); err == nil {
		t.Error("LoadImageFile(missing): want error")
	}

	// A load that fails building the store must release the name and
	// the worker quota.
	r := newTestRegistry(t, Config{})
	if _, err := r.Load("broken", testImage(), TenantConfig{Workers: 1, Shards: 5}); err == nil {
		t.Fatal("Load with non-power-of-two shards: want error")
	}
	if r.Len() != 0 || r.WorkersInUse() != 0 {
		t.Errorf("failed load leaked registry state: len %d workers %d", r.Len(), r.WorkersInUse())
	}
	mustLoad(t, r, "broken", TenantConfig{Workers: 1}) // the name is free again
}

func TestRegistryCloseEvictsAll(t *testing.T) {
	r := NewRegistry(Config{})
	for i := 0; i < 3; i++ {
		if _, err := r.Load(fmt.Sprintf("t%d", i), testImage(), TenantConfig{Workers: 1}); err != nil {
			t.Fatalf("Load: %v", err)
		}
	}
	r.Close()
	if r.Len() != 0 || r.WorkersInUse() != 0 {
		t.Errorf("after Close: len %d workers %d, want 0/0", r.Len(), r.WorkersInUse())
	}
}

// TestTenantStartsNoGoroutines checks that a tenant decides on its
// callers' goroutines: Load starts none, and Evict leaves none behind.
func TestTenantStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRegistry(Config{})
	tn := mustLoad(t, r, "alpha", TenantConfig{Workers: 4})
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("Load started %d goroutines", n-before)
	}
	if _, err := tn.Submit(context.Background(), []service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead},
	}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := r.Evict("alpha"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines left after Evict", n-before)
	}
}

func TestRegistryStatus(t *testing.T) {
	r := newTestRegistry(t, Config{MaxTenants: 4, WorkerBudget: 8})
	mustLoad(t, r, "zeta", TenantConfig{Workers: 1})
	mustLoad(t, r, "alpha", TenantConfig{Workers: 2})

	s := r.Status()
	if len(s.Tenants) != 2 || s.Tenants[0].Name != "alpha" || s.Tenants[1].Name != "zeta" {
		t.Fatalf("tenants not sorted by name: %+v", s.Tenants)
	}
	if s.MaxTenants != 4 || s.WorkerBudget != 8 || s.WorkersInUse != 3 {
		t.Errorf("budget row: %+v", s)
	}
	if s.Tenants[0].State != "active" || s.Tenants[0].Segments != 3 || s.Tenants[0].Workers != 2 {
		t.Errorf("alpha row: %+v", s.Tenants[0])
	}
}

// TestTenantCheckZeroAlloc gates the tenant-scoped decision hot path:
// the lifecycle gate adds one atomic load to service.SubmitInto and
// nothing else — still 0 allocs/op.
func TestTenantCheckZeroAlloc(t *testing.T) {
	r := newTestRegistry(t, Config{})
	tn := mustLoad(t, r, "hot", TenantConfig{Workers: 1})

	ctx := context.Background()
	queries := []service.Query{{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: 5, Kind: core.AccessRead}}
	dst := make([]service.Decision, len(queries))
	for i := 0; i < 8; i++ { // warm the descriptor pool and the SDW cache
		if err := tn.SubmitInto(ctx, queries, dst); err != nil {
			t.Fatalf("warm-up SubmitInto: %v", err)
		}
	}
	if !dst[0].Allowed {
		t.Fatalf("warm-up decision wrong: %+v", dst[0])
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tn.SubmitInto(ctx, queries, dst); err != nil {
			t.Fatalf("SubmitInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("tenant SubmitInto allocates %.2f objects per batch; the tenant-scoped hot path budget is 0", allocs)
	}
}
