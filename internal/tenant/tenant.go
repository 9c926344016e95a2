// Package tenant multiplexes many independent descriptor spaces over
// one decision daemon: an image registry in which every loaded machine
// image becomes a tenant with its own service.Store shard group, its
// own decision processors, and its own bound on callers waiting for
// one.
//
// The paper's ring hardware multiplexes many mutually-suspicious
// protection domains over a single validation mechanism; the modern
// form of that idea (Complets' POE compartments, Capacity's per-domain
// capability spaces — see PAPERS.md) is many small protection domains
// served by one enforcement engine. A tenant here is exactly such a
// compartment: a complete descriptor space whose decisions never read
// another tenant's descriptors, whose worker quota bounds the CPU it
// can consume, and whose waiter bound sheds its own overload instead
// of exporting it to its neighbours.
//
// # Lifecycle
//
// A tenant is built before its name is claimed: Load builds its store
// and service first and then registers it, active, so every tenant the
// registry holds can serve. From there it moves through a one-way
// state machine:
//
//		active → sealed ─┐
//		  │              │
//		  └──────→ draining → evicted
//
//	  - active: decisions and supervisor mutations are served.
//	  - sealed: the descriptor space is frozen — decisions are served,
//	    mutations answer ErrSealed (HTTP 409). Sealing is the service
//	    analogue of handing a subsystem a read-only descriptor segment.
//	  - draining: eviction has begun — no new batches are accepted
//	    (ErrDraining, HTTP 409 for mutations), and every batch already
//	    admitted, deciding or waiting for a processor, completes.
//	  - evicted: the tenant is gone from the registry; its store is
//	    unreachable and collectable.
//
// # Isolation
//
// Each tenant owns a full service.Service: its own processors, each
// with its own RCU snapshot reader, and its own bound on callers
// waiting for one. A caller decides its batch on its own goroutine, on
// a processor it borrows from its tenant. A hot tenant that saturates
// its quota fills its own waiter bound and sheds with ErrQueueFull;
// callers of other tenants borrow other processors and keep deciding
// at their own pace (experiment T15 measures exactly this). The
// registry's worker budget bounds the number of batches deciding at
// once across tenants, so loading more tenants cannot oversubscribe
// the host.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/service"
)

// State is a tenant's lifecycle state.
type State int32

const (
	// StateActive marks a tenant serving decisions and mutations: a
	// loaded tenant's first state.
	StateActive State = iota
	// StateSealed marks a frozen descriptor space: decisions are
	// served, mutations are rejected.
	StateSealed
	// StateDraining marks a tenant whose eviction has begun: admitted
	// batches complete, new work is rejected.
	StateDraining
	// StateEvicted marks a tenant removed from the registry.
	StateEvicted
)

// String returns the wire name of the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateSealed:
		return "sealed"
	case StateDraining:
		return "draining"
	case StateEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Registry errors.
var (
	// ErrTenantExists reports a load under a name already registered.
	ErrTenantExists = errors.New("tenant: name already loaded")
	// ErrTenantNotFound reports an operation on an unknown tenant.
	ErrTenantNotFound = errors.New("tenant: not found")
	// ErrSealed reports a mutation against a sealed tenant.
	ErrSealed = errors.New("tenant: image is sealed")
	// ErrDraining reports work submitted while an eviction drains the
	// tenant — the mutation-races-drain conflict (HTTP 409).
	ErrDraining = errors.New("tenant: draining")
	// ErrWorkerBudget reports a load whose worker quota would exceed
	// the registry's budget.
	ErrWorkerBudget = errors.New("tenant: worker budget exhausted")
	// ErrTooManyTenants reports a load beyond Config.MaxTenants.
	ErrTooManyTenants = errors.New("tenant: registry full")
	// ErrBadName reports an unusable tenant name.
	ErrBadName = errors.New("tenant: bad name")
)

// TenantConfig sizes one tenant's decision service. Zero fields take
// the registry's defaults.
type TenantConfig struct {
	// Workers is the tenant's decision worker quota — the number of
	// processors, and so of batches the tenant decides at once, each on
	// a decider over the snapshots it pins.
	Workers int
	// QueueDepth bounds the tenant's callers waiting for a processor;
	// overload sheds with service.ErrQueueFull instead of starving
	// other tenants.
	QueueDepth int
	// BatchLimit caps queries per batch.
	BatchLimit int
	// Shards is the tenant store's descriptor shard count.
	Shards int
}

// Config sizes a Registry.
type Config struct {
	// MaxTenants bounds the number of simultaneously loaded images;
	// default 16.
	MaxTenants int
	// WorkerBudget bounds the sum of all tenants' worker quotas;
	// default 64.
	WorkerBudget int
	// Defaults fills zero fields of each load's TenantConfig; its own
	// zero fields fall back to 2 workers and the service defaults.
	Defaults TenantConfig
}

// Tenant is one loaded image: a complete descriptor space with its own
// decision service and lifecycle state.
type Tenant struct {
	name  string
	cfg   TenantConfig
	state atomic.Int32

	store *service.Store
	svc   *service.Service
	// revoked is closed by Evict, ending every subscription to the
	// store's publications; shootdowns and expires count the feed
	// (subscriptions.go).
	revoked             chan struct{}
	shootdowns, expires atomic.Uint64

	// deniedMutations counts mutations rejected by seal or drain —
	// the tenant-level conflict counter surfaced in /v1/images.
	deniedMutations atomic.Uint64
}

// Name returns the tenant's registry name.
func (t *Tenant) Name() string { return t.name }

// State returns the tenant's current lifecycle state.
func (t *Tenant) State() State { return State(t.state.Load()) }

// Store returns the tenant's descriptor store.
func (t *Tenant) Store() *service.Store { return t.store }

// Service returns the tenant's decision service.
func (t *Tenant) Service() *service.Service { return t.svc }

// Config returns the tenant's resolved sizing.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// DeniedMutations returns the count of mutations rejected by seal or
// drain.
func (t *Tenant) DeniedMutations() uint64 { return t.deniedMutations.Load() }

// checkable returns nil when the tenant serves decisions in its
// current state, or the rejection error.
//
//ring:hotpath
func (t *Tenant) checkable() error {
	switch t.State() {
	case StateActive, StateSealed:
		return nil
	case StateDraining:
		return ErrDraining
	default:
		return ErrTenantNotFound
	}
}

// SubmitInto answers a batch of queries in place (dst[i] answers
// queries[i]) on a processor of the tenant's service. One atomic state load
// guards the tenant lifecycle; beyond that the call is exactly the
// zero-allocation service.SubmitInto hot path, so the per-tenant check
// path stays 0 allocs/op (gated by TestTenantCheckZeroAlloc).
//
//ring:hotpath
func (t *Tenant) SubmitInto(ctx context.Context, queries []service.Query, dst []service.Decision) error {
	if err := t.checkable(); err != nil {
		return err
	}
	return t.svc.SubmitInto(ctx, queries, dst)
}

// Submit answers a batch of queries, allocating the decision slice.
func (t *Tenant) Submit(ctx context.Context, queries []service.Query) ([]service.Decision, error) {
	if err := t.checkable(); err != nil {
		return nil, err
	}
	return t.svc.Submit(ctx, queries)
}

// mutable returns nil when the tenant accepts supervisor mutations,
// or the rejection error; rejections are counted.
func (t *Tenant) mutable() error {
	switch t.State() {
	case StateActive:
		return nil
	case StateSealed:
		t.deniedMutations.Add(1)
		return ErrSealed
	case StateDraining:
		t.deniedMutations.Add(1)
		return ErrDraining
	default:
		return ErrTenantNotFound
	}
}

// MutOp names a supervisor edit.
type MutOp uint32

// Supervisor edits.
const (
	// MutSetBrackets replaces a segment's flags, brackets and gates.
	MutSetBrackets MutOp = 1 + iota
	// MutRevoke clears a segment's present flag.
	MutRevoke
	// MutRestore re-sets a revoked segment's present flag.
	MutRestore
)

// mutOpByName maps the op names of HTTP mutate bodies to their edits.
var mutOpByName = map[string]MutOp{"setbrackets": MutSetBrackets, "revoke": MutRevoke, "restore": MutRestore}

// Mutation is one supervisor edit of a tenant's descriptor space. The
// target segment is named by Segment or, when that is empty, by Segno.
type Mutation struct {
	Op      MutOp
	Segment string
	Segno   uint32

	// MutSetBrackets payload.
	Read     bool
	Write    bool
	Execute  bool
	Brackets core.Brackets
	Gates    uint32
}

// ErrUnknownSegment reports a mutation naming a segment the tenant's
// image does not hold.
var ErrUnknownSegment = errors.New("unknown segment")

// Mutate applies one supervisor edit and returns the store version it
// published. Every transport's edits take this one path: the lifecycle
// gate (ErrSealed, ErrDraining, ErrTenantNotFound; seal and
// drain rejections are counted in DeniedMutations), segment-name
// resolution (ErrUnknownSegment), bracket validation, then the store
// edit, so a seal or drain race answers the same way over HTTP and the
// wire.
func (t *Tenant) Mutate(m Mutation) (uint64, error) {
	if err := t.mutable(); err != nil {
		return 0, err
	}
	segno := m.Segno
	if m.Segment != "" {
		n, ok := t.store.Segno(m.Segment)
		if !ok {
			return 0, fmt.Errorf("%w %q", ErrUnknownSegment, m.Segment)
		}
		segno = n
	}
	var err error
	switch m.Op {
	case MutSetBrackets:
		if err = m.Brackets.Validate(); err == nil {
			err = t.store.SetBrackets(segno, m.Read, m.Write, m.Execute, m.Brackets, m.Gates)
		}
	case MutRevoke:
		err = t.store.Revoke(segno)
	case MutRestore:
		err = t.store.Restore(segno)
	default:
		err = fmt.Errorf("unknown mutation op %d", m.Op)
	}
	if err != nil {
		return 0, err
	}
	return t.store.Version(), nil
}

// Registry is the image registry: the set of loaded tenants, their
// shared worker budget, and the default tenant the single-tenant API
// routes to.
type Registry struct {
	cfg Config

	mu           sync.RWMutex
	tenants      map[string]*Tenant //ring:guarded mu
	order        []string           //ring:guarded mu (load order, for stable listings)
	workersInUse int                //ring:guarded mu
	evictions    uint64             //ring:guarded mu (completed evictions)
}

// DefaultTenant is the name the single-tenant endpoints (/v1/check,
// /v1/mutate, /healthz, /metrics) route to.
const DefaultTenant = "default"

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 16
	}
	if cfg.WorkerBudget <= 0 {
		cfg.WorkerBudget = 64
	}
	if cfg.Defaults.Workers <= 0 {
		cfg.Defaults.Workers = 2
	}
	return &Registry{cfg: cfg, tenants: make(map[string]*Tenant)}
}

// Config returns the registry's resolved sizing.
func (r *Registry) Config() Config { return r.cfg }

// ValidName reports whether name is usable as a tenant name: 1 to 64
// of RFC 3986's unreserved characters (A-Z a-z 0-9 - . _ ~), and
// neither "." nor "..". Every such name is its own URL path segment:
// nothing in it is escaped, decoded or cleaned on the way to
// /v1/t/{name} or /v1/images/{name}.
func ValidName(name string) bool {
	if name == "" || len(name) > 64 || name == "." || name == ".." {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("-._~", c) >= 0) {
			return false
		}
	}
	return true
}

// resolve fills cfg's zero fields from the registry defaults.
func (r *Registry) resolve(cfg TenantConfig) TenantConfig {
	d := r.cfg.Defaults
	if cfg.Workers <= 0 {
		cfg.Workers = d.Workers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = d.QueueDepth
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = d.BatchLimit
	}
	if cfg.Shards <= 0 {
		cfg.Shards = d.Shards
	}
	return cfg
}

// Load builds a new tenant named name from the image segments and
// registers it, active. The name, the tenant count and the worker
// budget are checked before the store and service are built, so a load
// that fails them (ErrTenantExists, ErrTooManyTenants, ErrWorkerBudget)
// allocates nothing; they are checked again, under the same registry
// lock as the insert, because a concurrent load may have claimed the
// name or the quota meanwhile.
func (r *Registry) Load(name string, segs []service.Segment, cfg TenantConfig) (*Tenant, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	cfg = r.resolve(cfg)
	r.mu.RLock()
	err := r.admit(name, cfg.Workers)
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	st, err := service.NewStore(service.StoreConfig{Shards: cfg.Shards}, segs)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", name, err)
	}
	t := &Tenant{name: name, cfg: cfg, store: st, revoked: make(chan struct{})}
	t.svc = service.New(st, service.Config{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		BatchLimit: cfg.BatchLimit,
	})

	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.admit(name, cfg.Workers); err != nil {
		return nil, err
	}
	r.tenants[name] = t
	r.order = append(r.order, name)
	r.workersInUse += cfg.Workers
	return t, nil
}

// admit checks that a tenant named name with a quota of workers fits
// the registry: the name is free, a tenant slot is free and the quota
// fits what is left of the worker budget. The caller holds r.mu.
func (r *Registry) admit(name string, workers int) error {
	if _, dup := r.tenants[name]; dup {
		return fmt.Errorf("%w: %q", ErrTenantExists, name)
	}
	if len(r.tenants) >= r.cfg.MaxTenants {
		return fmt.Errorf("%w: %d images loaded", ErrTooManyTenants, r.cfg.MaxTenants)
	}
	if workers > r.cfg.WorkerBudget-r.workersInUse {
		return fmt.Errorf("%w: %d in use + %d requested > budget %d",
			ErrWorkerBudget, r.workersInUse, workers, r.cfg.WorkerBudget)
	}
	return nil
}

// unregister removes t from the map and returns its worker quota to
// the budget (idempotent).
func (r *Registry) unregister(t *Tenant) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tenants[t.name] != t {
		return
	}
	delete(r.tenants, t.name)
	for i, n := range r.order {
		if n == t.name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.workersInUse -= t.cfg.Workers
	r.evictions++
}

// Get returns the named tenant.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// Tenants returns the loaded tenants in load order.
func (r *Registry) Tenants() []*Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Tenant, 0, len(r.order))
	for _, n := range r.order {
		if t, ok := r.tenants[n]; ok {
			out = append(out, t)
		}
	}
	return out
}

// Len returns the number of loaded tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// WorkersInUse returns the sum of loaded tenants' worker quotas.
func (r *Registry) WorkersInUse() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.workersInUse
}

// Evictions returns the number of completed evictions.
func (r *Registry) Evictions() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.evictions
}

// Seal freezes the named tenant's descriptor space: decisions keep
// flowing, mutations answer ErrSealed from now on. Only an active
// tenant can be sealed.
func (r *Registry) Seal(name string) error {
	t, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	if !t.state.CompareAndSwap(int32(StateActive), int32(StateSealed)) {
		return fmt.Errorf("tenant %q: cannot seal while %s", name, t.State())
	}
	return nil
}

// Evict removes the named tenant: the state moves to draining (new
// work is rejected from that instant), every admitted batch completes,
// and the name is released.
// Evict returns after the drain; a concurrent Evict of the same tenant
// returns ErrDraining immediately.
func (r *Registry) Evict(name string) error {
	t, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	if !t.state.CompareAndSwap(int32(StateActive), int32(StateDraining)) &&
		!t.state.CompareAndSwap(int32(StateSealed), int32(StateDraining)) {
		switch t.State() {
		case StateDraining:
			return fmt.Errorf("%w: %q", ErrDraining, name)
		default:
			return fmt.Errorf("tenant %q: cannot evict while %s", name, t.State())
		}
	}
	// Revoke every subscription before the drain: subscribers hear the
	// expiration (and drop their replicas) rather than riding a TTL out
	// against a store about to disappear. Sealing, by contrast, leaves
	// replicas valid — a frozen descriptor space can never invalidate
	// them.
	close(t.revoked)
	t.expires.Add(uint64(t.store.Watchers()))
	// Drain outside any registry lock: Close waits for every admitted
	// batch to be answered.
	t.svc.Close()
	t.state.Store(int32(StateEvicted))
	r.unregister(t)
	return nil
}

// Close evicts every tenant (used at daemon shutdown); safe to call
// concurrently with serving.
func (r *Registry) Close() {
	for {
		ts := r.Tenants()
		if len(ts) == 0 {
			return
		}
		for _, t := range ts {
			// Best effort: concurrent evictions race benignly.
			_ = r.Evict(t.Name())
		}
	}
}

// TenantStatus is one tenant's row in a registry listing.
type TenantStatus struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Segments int    `json:"segments"`
	Shards   int    `json:"shards"`
	Workers  int    `json:"workers"`
	QueueCap int    `json:"queue_cap"`
	QueueLen int    `json:"queue_len"`
	// Version is the tenant store's mutation activity counter.
	Version uint64 `json:"version"`
	// Queries and Rejected are the tenant's decision and backpressure
	// counters; DeniedMutations counts seal/drain conflicts.
	Queries         uint64 `json:"queries"`
	Rejected        uint64 `json:"rejected"`
	DeniedMutations uint64 `json:"denied_mutations"`
}

// Status returns the tenant's listing row.
func (t *Tenant) Status() TenantStatus {
	snap := t.svc.Snapshot()
	return TenantStatus{
		Name:            t.name,
		State:           t.State().String(),
		Segments:        len(t.store.Segments()),
		Shards:          t.store.Shards(),
		Workers:         t.cfg.Workers,
		QueueCap:        snap.QueueCap,
		QueueLen:        snap.QueueLen,
		Version:         snap.Version,
		Queries:         snap.Queries,
		Rejected:        snap.Rejected,
		DeniedMutations: t.deniedMutations.Load(),
	}
}

// RegistryStatus is the /v1/images listing: every tenant plus the
// registry-wide budget counters.
type RegistryStatus struct {
	Tenants      []TenantStatus `json:"tenants"`
	MaxTenants   int            `json:"max_tenants"`
	WorkerBudget int            `json:"worker_budget"`
	WorkersInUse int            `json:"workers_in_use"`
	Evictions    uint64         `json:"evictions"`
}

// Status assembles the registry listing, tenants sorted by name for a
// stable wire shape.
func (r *Registry) Status() RegistryStatus {
	ts := r.Tenants()
	out := RegistryStatus{
		Tenants:      make([]TenantStatus, 0, len(ts)),
		MaxTenants:   r.cfg.MaxTenants,
		WorkerBudget: r.cfg.WorkerBudget,
		WorkersInUse: r.WorkersInUse(),
		Evictions:    r.Evictions(),
	}
	for _, t := range ts {
		out.Tenants = append(out.Tenants, t.Status())
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Name < out.Tenants[j].Name })
	return out
}
