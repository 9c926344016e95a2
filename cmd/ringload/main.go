// Command ringload is a closed-loop load generator for the
// protection-decision service: it replays a synthetic mix of
// access/call/return/effring queries — in-process through
// rings.Checker, or over HTTP against a running ringd — at a
// configurable concurrency and duration, and reports throughput plus
// p50/p95/p99 batch latency.
//
// Usage:
//
//	ringload [-c 4] [-duration 2s] [-batch 64]
//	         [-mix access=8,call=1,return=1,effring=1]
//	         [-workers 4] [-shards 0] [-queue 0]
//	         [-mutators 1] [-seed 1] [-sweep 1,2,4,8]
//	         [-sweep-workers 1,2,4] [-tenants 1]
//	         [-target http://host:8642] [-transport http]
//	         [-compare-transports] [-client-cache] [-json]
//
// Each of the -c clients owns one pre-generated query batch pool and
// one reusable decision buffer, and loops: submit, record the batch
// latency, repeat — a closed loop, so offered load adapts to service
// capacity. In-process mode drives Checker.CheckInto (the
// zero-allocation path); -target mode replays the same batches against
// a running ringd through one rings.DialRemote client's CheckInto —
// POSTing JSON to /v1/check by default, or (with -transport wire)
// pipelining binary frames down one persistent streaming session
// shared by every client, the correlation-ID path ringd serves on
// -listen-wire. A shed batch (rings.ErrQueueFull) counts as shed on
// every path. -mutators adds supervisor goroutines streaming
// SetBrackets edits through the store's snapshot-publish path while
// decisions run (in-process only). -sweep repeats the whole run across
// several descriptor-store shard counts and -sweep-workers across
// several worker-pool sizes; given both, the cross product is swept
// (the T14 scaling grid).
//
// -tenants N (N >= 2, in-process) runs the T15 isolation experiment
// instead: N independent tenants are loaded into one tenant.Registry,
// the -c hot clients spread their load over tenants 0..N-2 with a
// Zipf-skewed pick per batch, and one extra cold client drives tenant
// N-1 alone. A baseline trial (cold client only) runs first; the
// headline metric is the cold tenant's p99 under contention relative
// to that baseline — per-tenant processors and waiter bounds should
// keep it near the baseline while the hot tenants saturate their
// quotas and shed.
//
// -compare-transports (in-process) runs the T16 transport experiment:
// one registry serves the demo image simultaneously over a loopback
// HTTP listener and a loopback wire listener; the same client count
// and batch pools drive first the JSON transport, then the binary
// streaming transport, and the headline metrics are the throughput
// speedup and p99 ratio of wire over HTTP at equal worker count.
//
// -client-cache (in-process) runs the T17 client-cache experiment:
// one registry behind a loopback wire listener is driven twice per
// cell of a server-side mutation-rate grid — once through a plain
// wire session, once through a session fronted by the client-side SDW
// replica (rings.DialRemote with CacheSize), which decides locally and
// stays coherent via the Subscribe/Shootdown stream. A paced
// supervisor goroutine edits user_data's brackets at each grid rate,
// so every cell measures cached speedup and hit rate under that
// invalidation pressure; a cell whose trials deliver under 90% of its
// rate fails. One more cell draws every batch afresh on the idle store.
//
// With -json, results are emitted as a JSON array in the same shape as
// ringbench -json (id, title, host_ns, host, metrics, lines), so the
// two artifacts can feed the same dashboards.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed flag set.
type config struct {
	clients      int
	duration     time.Duration
	batch        int
	mix          mix
	workers      int
	shards       int
	queue        int
	mutators     int
	seed         int64
	sweep        []int
	sweepWorkers []int
	tenants      int
	target       string
	transport    string
	compare      bool
	clientCache  bool
	jsonOut      bool
}

// mix is the query mix as integer weights.
type mix struct {
	access, call, ret, effring int
}

func (m mix) total() int { return m.access + m.call + m.ret + m.effring }

func parseMix(s string) (mix, error) {
	m := mix{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("mix term %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("mix weight %q is not a non-negative integer", val)
		}
		switch name {
		case "access":
			m.access = w
		case "call":
			m.call = w
		case "return":
			m.ret = w
		case "effring":
			m.effring = w
		default:
			return m, fmt.Errorf("unknown mix op %q", name)
		}
	}
	if m.total() == 0 {
		return m, errors.New("mix has zero total weight")
	}
	return m, nil
}

func parseSweep(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sweep entry %q is not a positive integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// loadImage is the image the in-process modes serve: the same
// Multics-flavoured layout ringd's built-in demo image uses, so
// in-process and -target runs exercise comparable descriptor shapes.
func loadImage() []rings.Segment {
	return []rings.Segment{
		{Name: "supervisor", Size: 4096, Read: true, Execute: true,
			Brackets: rings.Brackets{R1: 0, R2: 0, R3: 7}, Gates: 8},
		{Name: "sys_data", Size: 1024, Read: true, Write: true,
			Brackets: rings.Brackets{R1: 0, R2: 2, R3: 2}},
		{Name: "math_lib", Size: 2048, Read: true, Execute: true,
			Brackets: rings.Brackets{R1: 0, R2: 7, R3: 7}},
		{Name: "editor", Size: 2048, Read: true, Execute: true,
			Brackets: rings.Brackets{R1: 4, R2: 4, R3: 5}, Gates: 2},
		{Name: "user_code", Size: 1024, Read: true, Execute: true,
			Brackets: rings.Brackets{R1: 4, R2: 6, R3: 6}},
		{Name: "user_data", Size: 4096, Read: true, Write: true,
			Brackets: rings.Brackets{R1: 4, R2: 6, R3: 6}},
	}
}

// genQuery draws one query from the mix. Targets are numbered segments
// (segno form), so the same generator works in-process and against any
// ringd image with at least `segments` segments.
func genQuery(rng *rand.Rand, m mix, segments uint32) rings.Query {
	pick := rng.Intn(m.total())
	segno := rng.Uint32() % segments
	ring := rings.Ring(rng.Intn(8))
	wordno := rng.Uint32() % 64
	switch {
	case pick < m.access:
		kinds := [3]rings.AccessKind{rings.AccessRead, rings.AccessWrite, rings.AccessExecute}
		return rings.Query{Op: rings.OpAccess, Ring: ring, Segno: segno, Wordno: wordno, Kind: kinds[rng.Intn(3)]}
	case pick < m.access+m.call:
		return rings.Query{Op: rings.OpCall, Ring: ring, Segno: segno, Wordno: wordno % 8}
	case pick < m.access+m.call+m.ret:
		eff := rings.Ring(rng.Intn(8))
		return rings.Query{Op: rings.OpReturn, Ring: ring, Segno: segno, Wordno: wordno, EffRing: &eff}
	default:
		chain := make([]rings.ChainStep, 1+rng.Intn(3))
		for i := range chain {
			if rng.Intn(2) == 0 {
				chain[i] = rings.ChainStep{PR: true, Ring: rings.Ring(rng.Intn(8))}
			} else {
				chain[i] = rings.ChainStep{Ring: rings.Ring(rng.Intn(8)), Segno: rng.Uint32() % segments}
			}
		}
		return rings.Query{Op: rings.OpEffRing, Ring: ring, Chain: chain}
	}
}

// genBatches pre-generates the per-client batch pools so the hot loop
// only submits; client c cycles through its own pool deterministically
// (seed + client index).
func genBatches(cfg config, segments uint32) [][][]rings.Query {
	const poolSize = 16
	pools := make([][][]rings.Query, cfg.clients)
	for c := range pools {
		rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
		pools[c] = make([][]rings.Query, poolSize)
		for p := range pools[c] {
			batch := make([]rings.Query, cfg.batch)
			for i := range batch {
				batch[i] = genQuery(rng, cfg.mix, segments)
			}
			pools[c][p] = batch
		}
	}
	return pools
}

// ---- Log-linear latency histogram ----

// subBits gives 2^subBits linear sub-buckets per power-of-two range:
// ~6% relative resolution, enough for p99 on a histogram that never
// needs sorting or unbounded memory.
const subBits = 4

type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

func (h *hist) add(ns int64) {
	v := uint64(max(ns, 0))
	h.n++
	if v < 1<<subBits {
		h.counts[v]++
		return
	}
	exp := bits.Len64(v) - 1
	sub := (v >> (exp - subBits)) & (1<<subBits - 1)
	h.counts[uint64(exp-subBits+1)<<subBits|sub]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
}

// quantile returns the lower bound of the bucket holding the q-th
// sample (0 < q <= 1).
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			block := uint64(i) >> subBits
			sub := uint64(i) & (1<<subBits - 1)
			if block == 0 {
				return int64(sub)
			}
			return int64((1<<subBits | sub) << (block - 1))
		}
	}
	return 0
}

// ---- Checkers ----

// checker is what a trial's clients submit to: an in-process
// rings.Checker or a rings.DialRemote client, over either transport.
type checker interface {
	CheckInto(queries []rings.Query, dst []rings.Decision) error
}

// remoteTrial runs one trial against the ringd at target over
// transport. The batch pools are generated for the served image's
// segment count, from its health answer, so generated segnos stay
// mostly in range.
func remoteTrial(cfg config, target, transport string) (*result, error) {
	rc, err := rings.DialRemote(target, rings.RemoteConfig{Transport: transport})
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	h, err := rc.Health()
	if err != nil {
		return nil, err
	}
	if h.Segments <= 0 {
		return nil, fmt.Errorf("target unhealthy: %+v", h)
	}
	cfg.mutators = 0 // supervisor edits are in-process only
	return runTrial(cfg, rc, nil, genBatches(cfg, uint32(h.Segments)), 0)
}

// ---- T16: transport comparison ----

// runT16 serves one registry over both transports on loopback
// listeners and measures the same closed-loop trial over each: the
// JSON-vs-binary delta at equal worker count.
func runT16(cfg config) ([]*exp.Result, error) {
	reg := tenant.NewRegistry(tenant.Config{
		MaxTenants:   1,
		WorkerBudget: cfg.workers,
	})
	segs := loadImage()
	if _, err := reg.Load(tenant.DefaultTenant, segs, tenant.TenantConfig{
		Workers: cfg.workers, QueueDepth: cfg.queue, Shards: cfg.shards,
	}); err != nil {
		return nil, err
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{})
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(hln)
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hs.Close()
		h.Close()
		return nil, err
	}
	ws := wire.NewServer(reg, wire.Config{})
	go ws.Serve(wln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		ws.Shutdown(ctx)
		h.Close()
	}()

	// Both trials generate the same seeded pools for the same image.
	httpRes, err := remoteTrial(cfg, "http://"+hln.Addr().String(), "http")
	if err != nil {
		return nil, err
	}
	wireRes, err := remoteTrial(cfg, wln.Addr().String(), "wire")
	if err != nil {
		return nil, err
	}

	httpReport := report(cfg, httpRes, "http")
	httpReport.ID = "RINGLOAD-T16-HTTP"
	httpReport.Title = "transport comparison: HTTP/JSON request-response"
	wireReport := report(cfg, wireRes, "wire")
	wireReport.ID = "RINGLOAD-T16-WIRE"
	wireReport.Title = "transport comparison: binary streaming session"

	speedup := 0.0
	if t := httpRes.throughput(); t > 0 {
		speedup = wireRes.throughput() / t
	}
	p99Ratio := 0.0
	if p := httpRes.lat.quantile(0.99); p > 0 {
		p99Ratio = float64(wireRes.lat.quantile(0.99)) / float64(p)
	}
	delta := &exp.Result{
		ID:     "RINGLOAD-T16",
		Title:  "transport comparison: binary streaming vs HTTP/JSON delta",
		HostNs: httpRes.elapsed.Nanoseconds() + wireRes.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"wire_speedup":           speedup,
			"p99_ratio":              p99Ratio,
			"http_decisions_per_sec": httpRes.throughput(),
			"wire_decisions_per_sec": wireRes.throughput(),
			"http_p99_ns":            float64(httpRes.lat.quantile(0.99)),
			"wire_p99_ns":            float64(wireRes.lat.quantile(0.99)),
			"clients":                float64(cfg.clients),
			"batch":                  float64(cfg.batch),
			"workers":                float64(cfg.workers),
		},
		Lines: []string{
			fmt.Sprintf("%d clients x batch %d, %d workers, %v per transport",
				cfg.clients, cfg.batch, cfg.workers, cfg.duration),
			fmt.Sprintf("http: %.0f decisions/s, p99 %v", httpRes.throughput(),
				time.Duration(httpRes.lat.quantile(0.99))),
			fmt.Sprintf("wire: %.0f decisions/s, p99 %v (one session, pipelined)",
				wireRes.throughput(), time.Duration(wireRes.lat.quantile(0.99))),
			fmt.Sprintf("wire/http: %.2fx throughput, %.2fx p99", speedup, p99Ratio),
		},
	}
	return []*exp.Result{httpReport, wireReport, delta}, nil
}

// ---- T17: the client-side SDW replica ----

// t17Rates is the server-side mutation-rate grid, supervisor edits per
// second against the user_data segment: an idle store, a trickle, and
// an aggressive editor. Each rate prices the shootdown stream — every
// edit makes the edited shard's table stale on every subscribed client
// mid-trial.
var t17Rates = []int{0, 100, 1000}

// t17Trial runs one closed-loop trial against the wire listener at
// addr — through a plain session when cacheSize is 0, through an SDW
// replica in front of the session otherwise — while a paced supervisor
// goroutine edits user_data's brackets rate times per second through
// Tenant.Mutate (the same edit runTrial's in-process mutators stream,
// but rate-limited so both trials in a grid cell see identical
// invalidation pressure). pools and fresh are runTrial's.
func t17Trial(cfg config, addr string, cacheSize int, rate int, tnt *tenant.Tenant, udSegno uint32, pools [][][]rings.Query, fresh uint32) (*result, rings.CacheStats, error) {
	rcfg := rings.RemoteConfig{Transport: "wire"}
	if cacheSize > 0 {
		rcfg.CacheSize = cacheSize
		rcfg.CacheTTL = 5 * time.Second // coherence comes from shootdowns; TTL is the lag backstop
	}
	rc, err := rings.DialRemote(addr, rcfg)
	if err != nil {
		return nil, rings.CacheStats{}, err
	}
	defer rc.Close()

	stopMut := make(chan struct{})
	var mutWG sync.WaitGroup
	var mutations atomic.Uint64
	var mutErr atomic.Value
	if rate > 0 {
		mutWG.Add(1)
		go func() {
			defer mutWG.Done()
			wide := rings.Brackets{R1: 4, R2: 6, R3: 6}
			narrow := rings.Brackets{R1: 4, R2: 5, R3: 5}
			period := time.Second / time.Duration(rate)
			tick := time.NewTicker(period)
			defer tick.Stop()
			start := time.Now()
			for n := 0; ; {
				select {
				case <-stopMut:
					return
				case <-tick.C:
				}
				// A ticker drops the ticks a busy receiver misses; making
				// every edit that has fallen due since start keeps the
				// delivered rate at the target.
				for due := int(time.Since(start) / period); n < due; n++ {
					m := tenant.Mutation{Op: tenant.MutSetBrackets, Segno: udSegno, Read: true, Write: true, Brackets: wide}
					if n%2 == 0 {
						m.Brackets = narrow
					}
					if _, err := tnt.Mutate(m); err != nil {
						mutErr.Store(err)
						return
					}
					mutations.Add(1)
				}
			}
		}()
	}

	res, err := runTrial(cfg, rc, nil, pools, fresh)
	close(stopMut)
	mutWG.Wait()
	stats := rc.CacheStats()
	if err != nil {
		return nil, stats, err
	}
	if e, ok := mutErr.Load().(error); ok {
		return nil, stats, e
	}
	res.mutations = mutations.Load()
	return res, stats, nil
}

// runT17 serves one registry over a loopback wire listener and, for
// each mutation rate in t17Rates, measures the same batch pools twice:
// uncached (every batch a wire round trip) and cached (decided from
// the client's SDW replica, kept coherent by the shootdown stream).
// One more cell runs the idle store with every batch drawn afresh, as
// no pool repeats. The headline is the idle-store cell: cached
// throughput over uncached, at the observed hit rate.
func runT17(cfg config) ([]*exp.Result, error) {
	reg := tenant.NewRegistry(tenant.Config{
		MaxTenants:   1,
		WorkerBudget: cfg.workers,
	})
	segs := loadImage()
	tnt, err := reg.Load(tenant.DefaultTenant, segs, tenant.TenantConfig{
		Workers: cfg.workers, QueueDepth: cfg.queue, Shards: cfg.shards,
	})
	if err != nil {
		reg.Close()
		return nil, err
	}
	udSegno, ok := tnt.Store().Segno("user_data")
	if !ok {
		reg.Close()
		return nil, errors.New("demo image has no user_data segment")
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	ws := wire.NewServer(reg, wire.Config{})
	go ws.Serve(wln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
		reg.Close()
	}()

	cfg.mutators = 0 // T17 paces its own supervisor edits per grid cell
	// T17 keeps the 8:1:1 mix without effring chains it was first
	// recorded with: the decision-lease cache it was first measured
	// against could not lease a chain across shards.
	cfg.mix.effring = 0
	pools := genBatches(cfg, uint32(len(segs)))
	const cacheSize = 1 // any positive size switches the replica on

	addr := wln.Addr().String()
	var out []*exp.Result
	var headSpeedup, headHitRate float64
	var headNs int64
	cell := func(id, title string, rate int, pools [][][]rings.Query, fresh uint32) error {
		un, _, err := t17Trial(cfg, addr, 0, rate, tnt, udSegno, pools, fresh)
		if err != nil {
			return err
		}
		ca, stats, err := t17Trial(cfg, addr, cacheSize, rate, tnt, udSegno, pools, fresh)
		if err != nil {
			return err
		}
		// A cell measures its target rate only if both trials delivered it.
		achieved := min(un.mutationRate(), ca.mutationRate())
		if achieved < 0.9*float64(rate) {
			return fmt.Errorf("T17 cell at %d edits/s delivered %.0f edits/s, below 90%% of its target", rate, achieved)
		}
		hitRate := 0.0
		if n := stats.Hits + stats.Misses; n > 0 {
			hitRate = float64(stats.Hits) / float64(n)
		}
		speedup := 0.0
		if t := un.throughput(); t > 0 {
			speedup = ca.throughput() / t
		}
		if pools != nil && rate == t17Rates[0] {
			headSpeedup, headHitRate = speedup, hitRate
		}
		headNs += un.elapsed.Nanoseconds() + ca.elapsed.Nanoseconds()
		batches := "the same pools both sides"
		if pools == nil {
			batches = "every batch drawn afresh"
		}
		out = append(out, &exp.Result{
			ID:     id,
			Title:  title,
			HostNs: un.elapsed.Nanoseconds() + ca.elapsed.Nanoseconds(),
			Metrics: map[string]float64{
				"mutation_rate":              float64(rate),
				"achieved_mutation_rate":     achieved,
				"uncached_decisions_per_sec": un.throughput(),
				"cached_decisions_per_sec":   ca.throughput(),
				"cached_speedup":             speedup,
				"hit_rate":                   hitRate,
				"uncached_p99_ns":            float64(un.lat.quantile(0.99)),
				"cached_p99_ns":              float64(ca.lat.quantile(0.99)),
				"lease_hits":                 float64(stats.Hits),
				"lease_misses":               float64(stats.Misses),
				"lease_shootdowns":           float64(stats.Shootdowns),
				"mutations":                  float64(ca.mutations),
				"clients":                    float64(cfg.clients),
				"batch":                      float64(cfg.batch),
				"workers":                    float64(cfg.workers),
			},
			Lines: []string{
				fmt.Sprintf("%d clients x batch %d, %d workers, %v per trial, %d supervisor edits/s (%.0f delivered), %s",
					cfg.clients, cfg.batch, cfg.workers, cfg.duration, rate, achieved, batches),
				fmt.Sprintf("uncached wire: %.0f decisions/s, p99 %v", un.throughput(),
					time.Duration(un.lat.quantile(0.99))),
				fmt.Sprintf("cached wire: %.0f decisions/s, p99 %v (%.1f%% hits, %d shootdowns)",
					ca.throughput(), time.Duration(ca.lat.quantile(0.99)),
					100*hitRate, stats.Shootdowns),
				fmt.Sprintf("cached/uncached: %.2fx throughput", speedup),
			},
		})
		return nil
	}
	for _, rate := range t17Rates {
		if err := cell(fmt.Sprintf("RINGLOAD-T17-M%d", rate),
			fmt.Sprintf("client descriptor cache: cached vs uncached wire at %d edits/s", rate),
			rate, pools, 0); err != nil {
			return nil, err
		}
	}
	if err := cell("RINGLOAD-T17-FRESH", "client descriptor cache: cached vs uncached wire, fresh queries",
		0, nil, uint32(len(segs))); err != nil {
		return nil, err
	}
	head := &exp.Result{
		ID:     "RINGLOAD-T17",
		Title:  "client descriptor cache: speedup over uncached wire",
		HostNs: headNs,
		Metrics: map[string]float64{
			"cached_speedup": headSpeedup,
			"hit_rate":       headHitRate,
			"clients":        float64(cfg.clients),
			"batch":          float64(cfg.batch),
			"workers":        float64(cfg.workers),
		},
		Lines: []string{
			fmt.Sprintf("idle store: %.2fx cached throughput at %.1f%% hit rate",
				headSpeedup, 100*headHitRate),
			fmt.Sprintf("grid: %v edits/s cells and a fresh-query cell above", t17Rates),
		},
	}
	return append(out, head), nil
}

// ---- T15: multi-tenant isolation ----

// zipfS is the Zipf skew of the hot-tenant pick: s=1.2 concentrates
// most batches on the first few tenants, the realistic "one noisy
// neighbour" shape.
const zipfS = 1.2

// t15Result is one T15 trial's measurements: the cold tenant's own
// latency/throughput, the hot aggregate, and the per-tenant decision
// spread.
type t15Result struct {
	elapsed   time.Duration
	cold      hist
	coldN     uint64
	hot       hist
	hotN      uint64
	shed      uint64
	perTenant []uint64
}

// t15Trial drives one trial: a single cold client on the last tenant,
// plus (when contended) cfg.clients hot clients Zipf-spread over the
// others. pools must hold cfg.clients+1 client pools; the extra one
// feeds the cold client.
func t15Trial(cfg config, ts []*tenant.Tenant, pools [][][]rings.Query, contended bool) (*t15Result, error) {
	res := &t15Result{}
	cold := ts[len(ts)-1]
	nhot := 0
	if contended {
		nhot = cfg.clients
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, nhot+1)
	hotHists := make([]hist, nhot)
	perTenant := make([]atomic.Uint64, len(ts))
	var hotN, shed atomic.Uint64
	ctx := context.Background()

	start := time.Now()
	for c := 0; c < nhot; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 1000 + int64(c)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(ts)-2))
			dst := make([]rings.Decision, cfg.batch)
			pool := pools[c]
			for i := 0; !stop.Load(); i++ {
				idx := int(zipf.Uint64())
				batch := pool[i%len(pool)]
				t0 := time.Now()
				err := ts[idx].SubmitInto(ctx, batch, dst)
				switch {
				case err == nil:
					hotHists[c].add(time.Since(t0).Nanoseconds())
					perTenant[idx].Add(uint64(len(batch)))
					hotN.Add(uint64(len(batch)))
				case errors.Is(err, rings.ErrQueueFull):
					shed.Add(1)
				default:
					errc <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]rings.Decision, cfg.batch)
		pool := pools[cfg.clients]
		for i := 0; !stop.Load(); i++ {
			batch := pool[i%len(pool)]
			t0 := time.Now()
			err := cold.SubmitInto(ctx, batch, dst)
			switch {
			case err == nil:
				res.cold.add(time.Since(t0).Nanoseconds())
				res.coldN += uint64(len(batch))
			case errors.Is(err, rings.ErrQueueFull):
				shed.Add(1)
			default:
				errc <- err
				return
			}
		}
	}()
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()
	res.elapsed = time.Since(start)
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	res.hotN, res.shed = hotN.Load(), shed.Load()
	for i := range hotHists {
		res.hot.merge(&hotHists[i])
	}
	res.perTenant = make([]uint64, len(ts))
	for i := range perTenant {
		res.perTenant[i] = perTenant[i].Load()
	}
	return res, nil
}

// runT15 loads cfg.tenants independent demo-image tenants into one
// registry, measures the cold tenant alone (baseline), then again with
// Zipf-skewed hot neighbours, and reports both trials.
func runT15(cfg config) ([]*exp.Result, error) {
	if cfg.tenants < 2 {
		return nil, fmt.Errorf("-tenants wants at least 2, got %d", cfg.tenants)
	}
	reg := tenant.NewRegistry(tenant.Config{
		MaxTenants:   cfg.tenants,
		WorkerBudget: cfg.tenants * cfg.workers,
	})
	defer reg.Close()
	segs := loadImage()
	ts := make([]*tenant.Tenant, cfg.tenants)
	for i := range ts {
		t, err := reg.Load(fmt.Sprintf("t%d", i), segs, tenant.TenantConfig{
			Workers: cfg.workers, QueueDepth: cfg.queue, Shards: cfg.shards,
		})
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}

	gen := cfg
	gen.clients = cfg.clients + 1 // the extra pool feeds the cold client
	pools := genBatches(gen, uint32(len(segs)))

	base, err := t15Trial(cfg, ts, pools, false)
	if err != nil {
		return nil, err
	}
	cont, err := t15Trial(cfg, ts, pools, true)
	if err != nil {
		return nil, err
	}

	coldTPS := func(r *t15Result) float64 {
		if r.elapsed <= 0 {
			return 0
		}
		return float64(r.coldN) / r.elapsed.Seconds()
	}
	baseline := &exp.Result{
		ID:     "RINGLOAD-T15-BASELINE",
		Title:  "tenant isolation baseline: cold tenant alone",
		HostNs: base.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"cold_decisions_per_sec": coldTPS(base),
			"cold_p50_ns":            float64(base.cold.quantile(0.50)),
			"cold_p99_ns":            float64(base.cold.quantile(0.99)),
			"tenants":                float64(cfg.tenants),
			"workers_per_tenant":     float64(cfg.workers),
			"batch":                  float64(cfg.batch),
		},
		Lines: []string{
			fmt.Sprintf("%d tenants x %d workers, cold client only, batch %d, %v",
				cfg.tenants, cfg.workers, cfg.batch, cfg.duration),
			fmt.Sprintf("cold tenant t%d: %d decisions (%.0f/s), p50 %v p99 %v",
				cfg.tenants-1, base.coldN, coldTPS(base),
				time.Duration(base.cold.quantile(0.50)), time.Duration(base.cold.quantile(0.99))),
		},
	}

	ratio := 0.0
	if p := base.cold.quantile(0.99); p > 0 {
		ratio = float64(cont.cold.quantile(0.99)) / float64(p)
	}
	hottest := 0
	for i, n := range cont.perTenant {
		if n > cont.perTenant[hottest] {
			hottest = i
		}
	}
	hotShare := 0.0
	if cont.hotN > 0 {
		hotShare = 100 * float64(cont.perTenant[hottest]) / float64(cont.hotN)
	}
	contended := &exp.Result{
		ID:     "RINGLOAD-T15",
		Title:  "tenant isolation: Zipf-hot neighbours vs cold tenant p99",
		HostNs: cont.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"hot_decisions_per_sec":  float64(cont.hotN) / cont.elapsed.Seconds(),
			"hot_p99_ns":             float64(cont.hot.quantile(0.99)),
			"shed_batches":           float64(cont.shed),
			"cold_decisions_per_sec": coldTPS(cont),
			"cold_p99_ns":            float64(cont.cold.quantile(0.99)),
			"cold_p99_baseline_ns":   float64(base.cold.quantile(0.99)),
			"cold_p99_ratio":         ratio,
			"tenants":                float64(cfg.tenants),
			"workers_per_tenant":     float64(cfg.workers),
			"clients":                float64(cfg.clients),
			"batch":                  float64(cfg.batch),
		},
		Lines: []string{
			fmt.Sprintf("%d tenants x %d workers, %d hot clients (zipf s=%.1f over t0..t%d) + 1 cold client, batch %d, %v",
				cfg.tenants, cfg.workers, cfg.clients, zipfS, cfg.tenants-2, cfg.batch, cfg.duration),
			fmt.Sprintf("hot aggregate: %d decisions (%.0f/s), p99 %v, %d batches shed; hottest t%d took %.0f%%",
				cont.hotN, float64(cont.hotN)/cont.elapsed.Seconds(),
				time.Duration(cont.hot.quantile(0.99)), cont.shed, hottest, hotShare),
			fmt.Sprintf("cold tenant t%d: %d decisions (%.0f/s), p99 %v vs baseline %v (ratio %.2f)",
				cfg.tenants-1, cont.coldN, coldTPS(cont),
				time.Duration(cont.cold.quantile(0.99)), time.Duration(base.cold.quantile(0.99)), ratio),
		},
	}
	return []*exp.Result{baseline, contended}, nil
}

// ---- Run loop ----

// result is one trial's measurements.
type result struct {
	shards    int
	elapsed   time.Duration
	decisions uint64
	batches   uint64
	shed      uint64
	mutations uint64
	lat       hist
}

func (r *result) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.decisions) / r.elapsed.Seconds()
}

// mutationRate is the supervisor edits per second the trial delivered.
func (r *result) mutationRate() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.mutations) / r.elapsed.Seconds()
}

// runTrial drives the closed loop: cfg.clients goroutines submitting
// batches to c until the duration elapses, a shed batch
// (rings.ErrQueueFull) counting as shed, plus cfg.mutators supervisor
// goroutines streaming bracket edits through sup (in-process only).
// Each client cycles its pool from pools or, when pools is nil, draws
// every batch afresh over fresh segments.
func runTrial(cfg config, c checker, sup *rings.Checker, pools [][][]rings.Query, fresh uint32) (*result, error) {
	res := &result{shards: cfg.shards}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, cfg.clients+cfg.mutators)
	hists := make([]hist, cfg.clients)
	var decisions, batches, shed, mutations atomic.Uint64

	start := time.Now()
	for client := 0; client < cfg.clients; client++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]rings.Decision, cfg.batch)
			var pool [][]rings.Query
			var rng *rand.Rand
			if pools != nil {
				pool = pools[client]
			} else {
				rng = rand.New(rand.NewSource(cfg.seed + int64(client)))
				pool = [][]rings.Query{make([]rings.Query, cfg.batch)}
			}
			for i := 0; !stop.Load(); i++ {
				batch := pool[i%len(pool)]
				for j := 0; rng != nil && j < len(batch); j++ {
					batch[j] = genQuery(rng, cfg.mix, fresh)
				}
				t0 := time.Now()
				err := c.CheckInto(batch, dst)
				if errors.Is(err, rings.ErrQueueFull) {
					shed.Add(1)
					continue
				}
				if err != nil {
					errc <- err
					return
				}
				hists[client].add(time.Since(t0).Nanoseconds())
				decisions.Add(uint64(len(batch)))
				batches.Add(1)
			}
		}()
	}
	wide := rings.Brackets{R1: 4, R2: 6, R3: 6}
	narrow := rings.Brackets{R1: 4, R2: 5, R3: 5}
	for m := 0; m < cfg.mutators; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				b := wide
				if i%2 == 0 {
					b = narrow
				}
				if err := sup.SetBrackets("user_data", true, true, false, b, 0); err != nil {
					errc <- err
					return
				}
				mutations.Add(1)
			}
		}()
	}
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()
	res.elapsed = time.Since(start)
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	res.decisions, res.batches = decisions.Load(), batches.Load()
	res.shed, res.mutations = shed.Load(), mutations.Load()
	for i := range hists {
		res.lat.merge(&hists[i])
	}
	return res, nil
}

func report(cfg config, res *result, mode string) *exp.Result {
	id := "RINGLOAD"
	switch {
	case len(cfg.sweep) > 0 && len(cfg.sweepWorkers) > 0:
		id = fmt.Sprintf("RINGLOAD-S%d-W%d", res.shards, cfg.workers)
	case len(cfg.sweep) > 0:
		id = fmt.Sprintf("RINGLOAD-S%d", res.shards)
	case len(cfg.sweepWorkers) > 0:
		id = fmt.Sprintf("RINGLOAD-W%d", cfg.workers)
	}
	lines := []string{
		fmt.Sprintf("mode %s, %d clients x batch %d, %v", mode, cfg.clients, cfg.batch, cfg.duration),
		fmt.Sprintf("mix access=%d call=%d return=%d effring=%d, seed %d",
			cfg.mix.access, cfg.mix.call, cfg.mix.ret, cfg.mix.effring, cfg.seed),
		fmt.Sprintf("decisions %d in %v (%.0f decisions/s), %d batches, %d shed",
			res.decisions, res.elapsed.Round(time.Millisecond), res.throughput(), res.batches, res.shed),
		fmt.Sprintf("batch latency p50 %v p95 %v p99 %v",
			time.Duration(res.lat.quantile(0.50)), time.Duration(res.lat.quantile(0.95)), time.Duration(res.lat.quantile(0.99))),
	}
	if mode == "in-process" {
		lines = append(lines, fmt.Sprintf("shards %d, workers %d, %d concurrent supervisor edits",
			res.shards, cfg.workers, res.mutations))
	}
	return &exp.Result{
		ID:     id,
		Title:  "protection-decision load: synthetic access/call/return mix",
		HostNs: res.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"decisions_per_sec": res.throughput(),
			"decisions":         float64(res.decisions),
			"batches":           float64(res.batches),
			"shed_batches":      float64(res.shed),
			"mutations":         float64(res.mutations),
			"p50_ns":            float64(res.lat.quantile(0.50)),
			"p95_ns":            float64(res.lat.quantile(0.95)),
			"p99_ns":            float64(res.lat.quantile(0.99)),
			"clients":           float64(cfg.clients),
			"batch":             float64(cfg.batch),
			"workers":           float64(cfg.workers),
			"shards":            float64(res.shards),
		},
		Lines: lines,
	}
}

// trialInProcess builds a Checker at the given shard count and runs one
// trial over it.
func trialInProcess(cfg config, shards int) (*result, error) {
	chk, err := rings.NewCheckerWith(rings.CheckerConfig{
		Workers:    cfg.workers,
		QueueDepth: cfg.queue,
		Shards:     shards,
	}, loadImage())
	if err != nil {
		return nil, err
	}
	defer chk.Close()
	cfg.shards = chk.Shards()
	pools := genBatches(cfg, uint32(len(loadImage())))
	return runTrial(cfg, chk, chk, pools, 0)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	clients := fs.Int("c", 4, "concurrent closed-loop clients")
	duration := fs.Duration("duration", 2*time.Second, "run length per trial")
	batch := fs.Int("batch", 64, "queries per submitted batch")
	mixFlag := fs.String("mix", "access=8,call=1,return=1,effring=1", "query mix weights")
	workers := fs.Int("workers", 4, "decision workers (in-process mode)")
	shards := fs.Int("shards", 0, "descriptor-store shards (in-process; 0 = default)")
	queue := fs.Int("queue", 0, "batch-queue depth (in-process; 0 = default)")
	mutators := fs.Int("mutators", 1, "concurrent supervisor-edit goroutines (in-process)")
	seed := fs.Int64("seed", 1, "query-generation seed")
	sweepFlag := fs.String("sweep", "", "comma-separated shard counts to sweep (in-process)")
	sweepWorkersFlag := fs.String("sweep-workers", "", "comma-separated worker counts to sweep (in-process; with -sweep, the cross product)")
	tenants := fs.Int("tenants", 1, "tenants for the T15 isolation experiment (>= 2 enables it; in-process)")
	target := fs.String("target", "", "ringd base URL; empty runs in-process")
	transport := fs.String("transport", "http", "transport for -target mode: http (JSON request-response) or wire (binary streaming session)")
	compare := fs.Bool("compare-transports", false, "run the T16 transport experiment in-process: same registry over HTTP and wire loopback listeners")
	clientCache := fs.Bool("client-cache", false, "run the T17 client-cache experiment in-process: SDW-replica wire clients vs uncached across a mutation-rate grid")
	jsonOut := fs.Bool("json", false, "emit results as a ringbench-compatible JSON array")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(stderr, "ringload:", err)
		return 1
	}
	sweep, err := parseSweep(*sweepFlag)
	if err != nil {
		fmt.Fprintln(stderr, "ringload:", err)
		return 1
	}
	sweepWorkers, err := parseSweep(*sweepWorkersFlag)
	if err != nil {
		fmt.Fprintln(stderr, "ringload:", err)
		return 1
	}
	if *clients <= 0 || *batch <= 0 || *duration <= 0 {
		fmt.Fprintln(stderr, "ringload: -c, -batch and -duration must be positive")
		return 1
	}
	if *tenants > 1 && *target != "" {
		fmt.Fprintln(stderr, "ringload: -tenants is in-process only, not with -target")
		return 1
	}
	if *transport != "http" && *transport != "wire" {
		fmt.Fprintf(stderr, "ringload: -transport must be http or wire, got %q\n", *transport)
		return 1
	}
	if *compare && *target != "" {
		fmt.Fprintln(stderr, "ringload: -compare-transports is in-process only, not with -target")
		return 1
	}
	if *compare && *tenants > 1 {
		fmt.Fprintln(stderr, "ringload: -compare-transports and -tenants are separate experiments")
		return 1
	}
	if *clientCache && *target != "" {
		fmt.Fprintln(stderr, "ringload: -client-cache is in-process only, not with -target")
		return 1
	}
	if *clientCache && *tenants > 1 {
		fmt.Fprintln(stderr, "ringload: -client-cache and -tenants are separate experiments")
		return 1
	}
	cfg := config{
		clients: *clients, duration: *duration, batch: *batch, mix: m,
		workers: *workers, shards: *shards, queue: *queue,
		mutators: *mutators, seed: *seed, sweep: sweep, sweepWorkers: sweepWorkers,
		tenants: *tenants, target: *target, transport: *transport,
		compare: *compare, clientCache: *clientCache, jsonOut: *jsonOut,
	}

	var results []*exp.Result
	switch {
	case cfg.target != "":
		res, err := remoteTrial(cfg, cfg.target, cfg.transport)
		if err != nil {
			fmt.Fprintln(stderr, "ringload:", err)
			return 1
		}
		results = append(results, report(cfg, res, cfg.transport))
	default:
		// In-process sections compose: a sweep grid, the T15 tenant
		// experiment, or (when neither is asked for) one plain trial —
		// all emitted into the same results array, so CI gets one
		// artifact from one invocation.
		ran := false
		if len(cfg.sweep) > 0 || len(cfg.sweepWorkers) > 0 {
			// Sweep the worker × shard grid in ascending order; a missing
			// axis holds the flag (or default) value fixed.
			shardCounts := append([]int(nil), cfg.sweep...)
			if len(shardCounts) == 0 {
				shardCounts = []int{cfg.shards}
			}
			workerCounts := append([]int(nil), cfg.sweepWorkers...)
			if len(workerCounts) == 0 {
				workerCounts = []int{cfg.workers}
			}
			sort.Ints(shardCounts)
			sort.Ints(workerCounts)
			scfg := cfg
			for _, w := range workerCounts {
				for _, n := range shardCounts {
					scfg.workers = w
					res, err := trialInProcess(scfg, n)
					if err != nil {
						fmt.Fprintln(stderr, "ringload:", err)
						return 1
					}
					results = append(results, report(scfg, res, "in-process"))
				}
			}
			ran = true
		}
		if cfg.tenants > 1 {
			t15, err := runT15(cfg)
			if err != nil {
				fmt.Fprintln(stderr, "ringload:", err)
				return 1
			}
			results = append(results, t15...)
			ran = true
		}
		if cfg.compare {
			t16, err := runT16(cfg)
			if err != nil {
				fmt.Fprintln(stderr, "ringload:", err)
				return 1
			}
			results = append(results, t16...)
			ran = true
		}
		if cfg.clientCache {
			t17, err := runT17(cfg)
			if err != nil {
				fmt.Fprintln(stderr, "ringload:", err)
				return 1
			}
			results = append(results, t17...)
			ran = true
		}
		if !ran {
			res, err := trialInProcess(cfg, cfg.shards)
			if err != nil {
				fmt.Fprintln(stderr, "ringload:", err)
				return 1
			}
			results = append(results, report(cfg, res, "in-process"))
		}
	}

	if cfg.jsonOut {
		if err := exp.WriteJSON(stdout, results); err != nil {
			fmt.Fprintln(stderr, "ringload:", err)
			return 1
		}
		return 0
	}
	for _, r := range results {
		fmt.Fprintf(stdout, "== %s: %s\n", r.ID, r.Title)
		for _, line := range r.Lines {
			fmt.Fprintln(stdout, "  ", line)
		}
	}
	return 0
}
