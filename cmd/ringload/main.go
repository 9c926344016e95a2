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
// every path. In-process, -workers sets the processors: a caller
// borrows one to decide a batch on its own goroutine, and -queue bounds
// the callers waiting for one, so a caller past that bound is shed.
// -mutators adds supervisor goroutines streaming SetBrackets edits
// through the store's snapshot-publish path while decisions run
// (in-process only). -sweep repeats the whole run across several
// descriptor-store shard counts and -sweep-workers across several
// processor counts; given both, the cross product is swept (the T14
// scaling grid). Every mode is a short spec over one trial runner:
// closed-loop clients, each keeping its own counts and latency
// histogram, and optional supervisor editors, paced or not.
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
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/hist"
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

// ---- The trial runner ----

// client is one closed-loop client of a trial. It submits batches
// through check until the trial ends, cycling pool or, when pool is
// nil, drawing every batch afresh from seed over fresh segments, and
// counts them toward its result group.
type client struct {
	check func(batch []rings.Query, dst []rings.Decision) error
	pool  [][]rings.Query
	seed  int64
	fresh uint32
	group int
}

// editors are a trial's supervisor goroutines: n of them call edit
// with 0, 1, 2, ... until the trial ends, as fast as they can or, with
// rate > 0, each at rate edits per second.
type editors struct {
	n    int
	edit func(i int) error
	rate int
}

// tally is one result group's measurements. A shed batch
// (rings.ErrQueueFull) counts as shed, not as decided.
type tally struct {
	decisions, batches, shed uint64
	lat                      hist.Hist // decided batches' latency, ns
}

// result is one trial's measurements: a tally per client group and the
// supervisor edits made.
type result struct {
	elapsed time.Duration
	groups  []tally
	edits   uint64
}

// rate is n per second of the trial.
func (r *result) rate(n uint64) float64 { return ratio(float64(n), r.elapsed.Seconds()) }

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// runTrial runs clients and eds for cfg.duration. Each goroutine keeps
// plain counters of its own, merged after the last one exits; the first
// error any of them met fails the trial.
func runTrial(cfg config, clients []client, eds editors) (*result, error) {
	done := make(chan struct{})
	errc := make(chan error, len(clients)+eds.n)
	tallies := make([]tally, len(clients))
	edits := make([]uint64, eds.n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.run(cfg, done, &tallies[i]); err != nil {
				errc <- err
			}
		}()
	}
	for i := range edits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := eds.run(done, &edits[i]); err != nil {
				errc <- err
			}
		}()
	}
	time.Sleep(cfg.duration)
	close(done)
	wg.Wait()
	res := &result{elapsed: time.Since(start)}
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	for i, c := range clients {
		for len(res.groups) <= c.group {
			res.groups = append(res.groups, tally{})
		}
		g, t := &res.groups[c.group], &tallies[i]
		g.decisions += t.decisions
		g.batches += t.batches
		g.shed += t.shed
		g.lat.Merge(&t.lat)
	}
	for _, n := range edits {
		res.edits += n
	}
	return res, nil
}

// run submits c's batches until done closes, counting them in t.
func (c client) run(cfg config, done <-chan struct{}, t *tally) error {
	dst := make([]rings.Decision, cfg.batch)
	pool := c.pool
	var rng *rand.Rand
	if pool == nil {
		rng = rand.New(rand.NewSource(c.seed))
		pool = [][]rings.Query{make([]rings.Query, cfg.batch)}
	}
	for i := 0; ; i++ {
		select {
		case <-done:
			return nil
		default:
		}
		batch := pool[i%len(pool)]
		for j := 0; rng != nil && j < len(batch); j++ {
			batch[j] = genQuery(rng, cfg.mix, c.fresh)
		}
		t0 := time.Now()
		switch err := c.check(batch, dst); {
		case err == nil:
			t.lat.Add(time.Since(t0).Nanoseconds())
			t.decisions += uint64(len(batch))
			t.batches++
		case errors.Is(err, rings.ErrQueueFull):
			t.shed++
		default:
			return err
		}
	}
}

// run makes edits until done closes, counting them in *made. Paced,
// edit n falls due (n+1)/rate seconds in; one already due runs at once,
// so a late wake-up catches up and the delivered rate holds the target.
func (e editors) run(done <-chan struct{}, made *uint64) error {
	start := time.Now()
	for n := 0; ; n++ {
		if e.rate > 0 {
			due := start.Add(time.Duration(n+1) * time.Second / time.Duration(e.rate))
			if wait := time.Until(due); wait > 0 {
				select {
				case <-done:
					return nil
				case <-time.After(wait):
				}
			}
		}
		select {
		case <-done:
			return nil
		default:
		}
		if err := e.edit(n); err != nil {
			return err
		}
		*made++
	}
}

// clientsOf is cfg.clients clients of group 0 submitting through check:
// client c cycles pools[c] or, when pools is nil, draws afresh from seed
// cfg.seed+c over fresh segments.
func clientsOf(cfg config, check func([]rings.Query, []rings.Decision) error, pools [][][]rings.Query, fresh uint32) []client {
	cs := make([]client, cfg.clients)
	for c := range cs {
		cs[c] = client{check: check, seed: cfg.seed + int64(c), fresh: fresh}
		if pools != nil {
			cs[c].pool = pools[c]
		}
	}
	return cs
}

// flip is supervisor edit i's brackets for user_data: narrowed on even
// edits, restored on odd ones.
func flip(i int) rings.Brackets {
	if i%2 == 0 {
		return rings.Brackets{R1: 4, R2: 5, R3: 5}
	}
	return rings.Brackets{R1: 4, R2: 6, R3: 6}
}

// ---- Trial specs ----

// inProcess runs one trial against an in-process Checker at cfg.shards
// shards while cfg.mutators supervisor goroutines stream bracket edits
// through the store's snapshot-publish path.
func inProcess(cfg config) (*exp.Result, error) {
	segs := tenant.DemoImage()
	chk, err := rings.NewCheckerWith(rings.CheckerConfig{
		Workers:    cfg.workers,
		QueueDepth: cfg.queue,
		Shards:     cfg.shards,
	}, segs)
	if err != nil {
		return nil, err
	}
	defer chk.Close()
	cfg.shards = chk.Shards()
	res, err := runTrial(cfg, clientsOf(cfg, chk.CheckInto, genBatches(cfg, uint32(len(segs))), 0),
		editors{n: cfg.mutators, edit: func(i int) error {
			return chk.SetBrackets("user_data", true, true, false, flip(i), 0)
		}})
	if err != nil {
		return nil, err
	}
	return report(cfg, res, "in-process"), nil
}

// remoteTrial runs one trial against the ringd at target over
// transport. The batch pools are generated for the served image's
// segment count, from its health answer, so generated segnos stay
// mostly in range. Supervisor edits are in-process only.
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
	return runTrial(cfg, clientsOf(cfg, rc.CheckInto, genBatches(cfg, uint32(h.Segments)), 0), editors{})
}

// loopback is one demo-image tenant served over loopback HTTP and wire
// listeners; close stops both and the registry.
type loopback struct {
	tnt      *tenant.Tenant
	httpURL  string
	wireAddr string
	close    func()
}

// serveLoopback loads the demo image as the default tenant of a fresh
// registry sized by cfg and serves it over both transports.
func serveLoopback(cfg config) (*loopback, error) {
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: cfg.workers})
	tnt, err := reg.Load(tenant.DefaultTenant, tenant.DemoImage(), tenant.TenantConfig{
		Workers: cfg.workers, QueueDepth: cfg.queue, Shards: cfg.shards,
	})
	if err != nil {
		reg.Close()
		return nil, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hln.Close()
		reg.Close()
		return nil, err
	}
	hs := &http.Server{Handler: tenant.NewHandler(reg, tenant.HandlerOptions{})}
	ws := wire.NewServer(reg, wire.Config{})
	go hs.Serve(hln)
	go ws.Serve(wln)
	return &loopback{tnt: tnt, httpURL: "http://" + hln.Addr().String(), wireAddr: wln.Addr().String(),
		close: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			ws.Shutdown(ctx)
			reg.Close()
		}}, nil
}

// ---- T16: transport comparison ----

// runT16 serves one registry over both transports on loopback
// listeners and measures the same closed-loop trial over each: the
// JSON-vs-binary delta at equal worker count.
func runT16(cfg config) ([]*exp.Result, error) {
	lb, err := serveLoopback(cfg)
	if err != nil {
		return nil, err
	}
	defer lb.close()

	// Both trials generate the same seeded pools for the same image.
	httpRes, err := remoteTrial(cfg, lb.httpURL, "http")
	if err != nil {
		return nil, err
	}
	wireRes, err := remoteTrial(cfg, lb.wireAddr, "wire")
	if err != nil {
		return nil, err
	}

	httpReport := report(cfg, httpRes, "http")
	httpReport.ID = "RINGLOAD-T16-HTTP"
	httpReport.Title = "transport comparison: HTTP/JSON request-response"
	wireReport := report(cfg, wireRes, "wire")
	wireReport.ID = "RINGLOAD-T16-WIRE"
	wireReport.Title = "transport comparison: binary streaming session"

	httpTPS, wireTPS := httpRes.rate(httpRes.groups[0].decisions), wireRes.rate(wireRes.groups[0].decisions)
	httpP99, wireP99 := httpRes.groups[0].lat.Quantile(0.99), wireRes.groups[0].lat.Quantile(0.99)
	speedup := ratio(wireTPS, httpTPS)
	p99Ratio := ratio(float64(wireP99), float64(httpP99))
	delta := &exp.Result{
		ID:     "RINGLOAD-T16",
		Title:  "transport comparison: binary streaming vs HTTP/JSON delta",
		HostNs: httpRes.elapsed.Nanoseconds() + wireRes.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"wire_speedup":           speedup,
			"p99_ratio":              p99Ratio,
			"http_decisions_per_sec": httpTPS,
			"wire_decisions_per_sec": wireTPS,
			"http_p99_ns":            float64(httpP99),
			"wire_p99_ns":            float64(wireP99),
			"clients":                float64(cfg.clients),
			"batch":                  float64(cfg.batch),
			"workers":                float64(cfg.workers),
		},
		Lines: []string{
			fmt.Sprintf("%d clients x batch %d, %d workers, %v per transport",
				cfg.clients, cfg.batch, cfg.workers, cfg.duration),
			fmt.Sprintf("http: %.0f decisions/s, p99 %v", httpTPS, time.Duration(httpP99)),
			fmt.Sprintf("wire: %.0f decisions/s, p99 %v (one session, pipelined)", wireTPS, time.Duration(wireP99)),
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

// runT17 serves one registry over a loopback wire listener and, for
// each mutation rate in t17Rates, measures the same batch pools twice:
// uncached (every batch a wire round trip) and cached (decided from
// the client's SDW replica, kept coherent by the shootdown stream).
// One more cell runs the idle store with every batch drawn afresh, as
// no pool repeats. The headline is the idle-store cell: cached
// throughput over uncached, at the observed hit rate.
func runT17(cfg config) ([]*exp.Result, error) {
	lb, err := serveLoopback(cfg)
	if err != nil {
		return nil, err
	}
	defer lb.close()

	// T17 keeps the 8:1:1 mix without effring chains it was first
	// recorded with: the decision-lease cache it was first measured
	// against could not lease a chain across shards.
	cfg.mix.effring = 0
	segs := uint32(len(tenant.DemoImage()))
	pools := genBatches(cfg, segs)

	// trial runs one trial through a plain wire session or, cached,
	// through an SDW replica in front of one, while a paced supervisor
	// edits user_data's brackets rate times per second through
	// Tenant.Mutate, so both trials in a cell see identical
	// invalidation pressure.
	trial := func(cached bool, rate int, pools [][][]rings.Query) (*result, rings.CacheStats, error) {
		rcfg := rings.RemoteConfig{Transport: "wire"}
		if cached {
			rcfg.CacheSize = 1              // any positive size switches the replica on
			rcfg.CacheTTL = 5 * time.Second // coherence comes from shootdowns; TTL is the lag backstop
		}
		rc, err := rings.DialRemote(lb.wireAddr, rcfg)
		if err != nil {
			return nil, rings.CacheStats{}, err
		}
		defer rc.Close()
		var eds editors
		if rate > 0 {
			eds = editors{n: 1, rate: rate, edit: func(i int) error {
				_, err := lb.tnt.Mutate(tenant.Mutation{Op: tenant.MutSetBrackets, Segment: "user_data",
					Read: true, Write: true, Brackets: flip(i)})
				return err
			}}
		}
		res, err := runTrial(cfg, clientsOf(cfg, rc.CheckInto, pools, segs), eds)
		return res, rc.CacheStats(), err
	}

	var out []*exp.Result
	var headSpeedup, headHitRate float64
	var headNs int64
	cell := func(id, title string, rate int, pools [][][]rings.Query) error {
		un, _, err := trial(false, rate, pools)
		if err != nil {
			return err
		}
		ca, stats, err := trial(true, rate, pools)
		if err != nil {
			return err
		}
		// A cell measures its target rate only if both trials delivered it.
		achieved := min(un.rate(un.edits), ca.rate(ca.edits))
		if achieved < 0.9*float64(rate) {
			return fmt.Errorf("T17 cell at %d edits/s delivered %.0f edits/s, below 90%% of its target", rate, achieved)
		}
		unTPS, caTPS := un.rate(un.groups[0].decisions), ca.rate(ca.groups[0].decisions)
		unP99, caP99 := un.groups[0].lat.Quantile(0.99), ca.groups[0].lat.Quantile(0.99)
		hitRate := ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses))
		speedup := ratio(caTPS, unTPS)
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
				"uncached_decisions_per_sec": unTPS,
				"cached_decisions_per_sec":   caTPS,
				"cached_speedup":             speedup,
				"hit_rate":                   hitRate,
				"uncached_p99_ns":            float64(unP99),
				"cached_p99_ns":              float64(caP99),
				"lease_hits":                 float64(stats.Hits),
				"lease_misses":               float64(stats.Misses),
				"lease_shootdowns":           float64(stats.Shootdowns),
				"mutations":                  float64(ca.edits),
				"clients":                    float64(cfg.clients),
				"batch":                      float64(cfg.batch),
				"workers":                    float64(cfg.workers),
			},
			Lines: []string{
				fmt.Sprintf("%d clients x batch %d, %d workers, %v per trial, %d supervisor edits/s (%.0f delivered), %s",
					cfg.clients, cfg.batch, cfg.workers, cfg.duration, rate, achieved, batches),
				fmt.Sprintf("uncached wire: %.0f decisions/s, p99 %v", unTPS, time.Duration(unP99)),
				fmt.Sprintf("cached wire: %.0f decisions/s, p99 %v (%.1f%% hits, %d shootdowns)",
					caTPS, time.Duration(caP99), 100*hitRate, stats.Shootdowns),
				fmt.Sprintf("cached/uncached: %.2fx throughput", speedup),
			},
		})
		return nil
	}
	for _, rate := range t17Rates {
		if err := cell(fmt.Sprintf("RINGLOAD-T17-M%d", rate),
			fmt.Sprintf("client descriptor cache: cached vs uncached wire at %d edits/s", rate),
			rate, pools); err != nil {
			return nil, err
		}
	}
	if err := cell("RINGLOAD-T17-FRESH", "client descriptor cache: cached vs uncached wire, fresh queries",
		0, nil); err != nil {
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
	segs := tenant.DemoImage()
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

	// trial runs one cold client on the last tenant (group 0) beside
	// nhot hot clients (group 1), each of which picks one of the other
	// tenants per batch, Zipf-skewed.
	ctx := context.Background()
	cold := ts[len(ts)-1]
	trial := func(nhot int) (*result, error) {
		cs := []client{{pool: pools[cfg.clients], check: func(b []rings.Query, dst []rings.Decision) error {
			return cold.SubmitInto(ctx, b, dst)
		}}}
		for c := 0; c < nhot; c++ {
			zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.seed+1000+int64(c))), zipfS, 1, uint64(len(ts)-2))
			cs = append(cs, client{pool: pools[c], group: 1, check: func(b []rings.Query, dst []rings.Decision) error {
				return ts[zipf.Uint64()].SubmitInto(ctx, b, dst)
			}})
		}
		return runTrial(cfg, cs, editors{})
	}
	base, err := trial(0)
	if err != nil {
		return nil, err
	}
	cont, err := trial(cfg.clients)
	if err != nil {
		return nil, err
	}

	bc, cc, hot := &base.groups[0], &cont.groups[0], &cont.groups[1]
	baseTPS, contTPS, hotTPS := base.rate(bc.decisions), cont.rate(cc.decisions), cont.rate(hot.decisions)
	baseP99, contP99 := bc.lat.Quantile(0.99), cc.lat.Quantile(0.99)
	baseline := &exp.Result{
		ID:     "RINGLOAD-T15-BASELINE",
		Title:  "tenant isolation baseline: cold tenant alone",
		HostNs: base.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"cold_decisions_per_sec": baseTPS,
			"cold_p50_ns":            float64(bc.lat.Quantile(0.50)),
			"cold_p99_ns":            float64(baseP99),
			"tenants":                float64(cfg.tenants),
			"workers_per_tenant":     float64(cfg.workers),
			"batch":                  float64(cfg.batch),
		},
		Lines: []string{
			fmt.Sprintf("%d tenants x %d workers, cold client only, batch %d, %v",
				cfg.tenants, cfg.workers, cfg.batch, cfg.duration),
			fmt.Sprintf("cold tenant t%d: %d decisions (%.0f/s), p50 %v p99 %v",
				cfg.tenants-1, bc.decisions, baseTPS,
				time.Duration(bc.lat.Quantile(0.50)), time.Duration(baseP99)),
		},
	}

	// The hot tenants decide only the contended trial's hot batches, so
	// their own query counts split the hot aggregate.
	hottest, most := 0, uint64(0)
	for i, t := range ts[:len(ts)-1] {
		if n := t.Service().Snapshot().Queries; n > most {
			hottest, most = i, n
		}
	}
	p99Ratio := ratio(float64(contP99), float64(baseP99))
	contended := &exp.Result{
		ID:     "RINGLOAD-T15",
		Title:  "tenant isolation: Zipf-hot neighbours vs cold tenant p99",
		HostNs: cont.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"hot_decisions_per_sec":  hotTPS,
			"hot_p99_ns":             float64(hot.lat.Quantile(0.99)),
			"shed_batches":           float64(hot.shed + cc.shed),
			"cold_decisions_per_sec": contTPS,
			"cold_p99_ns":            float64(contP99),
			"cold_p99_baseline_ns":   float64(baseP99),
			"cold_p99_ratio":         p99Ratio,
			"tenants":                float64(cfg.tenants),
			"workers_per_tenant":     float64(cfg.workers),
			"clients":                float64(cfg.clients),
			"batch":                  float64(cfg.batch),
		},
		Lines: []string{
			fmt.Sprintf("%d tenants x %d workers, %d hot clients (zipf s=%.1f over t0..t%d) + 1 cold client, batch %d, %v",
				cfg.tenants, cfg.workers, cfg.clients, zipfS, cfg.tenants-2, cfg.batch, cfg.duration),
			fmt.Sprintf("hot aggregate: %d decisions (%.0f/s), p99 %v, %d batches shed; hottest t%d took %.0f%%",
				hot.decisions, hotTPS, time.Duration(hot.lat.Quantile(0.99)), hot.shed+cc.shed,
				hottest, 100*ratio(float64(most), float64(hot.decisions))),
			fmt.Sprintf("cold tenant t%d: %d decisions (%.0f/s), p99 %v vs baseline %v (ratio %.2f)",
				cfg.tenants-1, cc.decisions, contTPS, time.Duration(contP99), time.Duration(baseP99), p99Ratio),
		},
	}
	return []*exp.Result{baseline, contended}, nil
}

// ---- Reports ----

func report(cfg config, res *result, mode string) *exp.Result {
	id := "RINGLOAD"
	switch {
	case len(cfg.sweep) > 0 && len(cfg.sweepWorkers) > 0:
		id = fmt.Sprintf("RINGLOAD-S%d-W%d", cfg.shards, cfg.workers)
	case len(cfg.sweep) > 0:
		id = fmt.Sprintf("RINGLOAD-S%d", cfg.shards)
	case len(cfg.sweepWorkers) > 0:
		id = fmt.Sprintf("RINGLOAD-W%d", cfg.workers)
	}
	g := &res.groups[0]
	tps := res.rate(g.decisions)
	p50, p95, p99 := g.lat.Quantile(0.50), g.lat.Quantile(0.95), g.lat.Quantile(0.99)
	lines := []string{
		fmt.Sprintf("mode %s, %d clients x batch %d, %v", mode, cfg.clients, cfg.batch, cfg.duration),
		fmt.Sprintf("mix access=%d call=%d return=%d effring=%d, seed %d",
			cfg.mix.access, cfg.mix.call, cfg.mix.ret, cfg.mix.effring, cfg.seed),
		fmt.Sprintf("decisions %d in %v (%.0f decisions/s), %d batches, %d shed",
			g.decisions, res.elapsed.Round(time.Millisecond), tps, g.batches, g.shed),
		fmt.Sprintf("batch latency p50 %v p95 %v p99 %v",
			time.Duration(p50), time.Duration(p95), time.Duration(p99)),
	}
	if mode == "in-process" {
		lines = append(lines, fmt.Sprintf("shards %d, workers %d, %d concurrent supervisor edits",
			cfg.shards, cfg.workers, res.edits))
	}
	return &exp.Result{
		ID:     id,
		Title:  "protection-decision load: synthetic access/call/return mix",
		HostNs: res.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"decisions_per_sec": tps,
			"decisions":         float64(g.decisions),
			"batches":           float64(g.batches),
			"shed_batches":      float64(g.shed),
			"mutations":         float64(res.edits),
			"p50_ns":            float64(p50),
			"p95_ns":            float64(p95),
			"p99_ns":            float64(p99),
			"clients":           float64(cfg.clients),
			"batch":             float64(cfg.batch),
			"workers":           float64(cfg.workers),
			"shards":            float64(cfg.shards),
		},
		Lines: lines,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	clients := fs.Int("c", 4, "concurrent closed-loop clients")
	duration := fs.Duration("duration", 2*time.Second, "run length per trial")
	batch := fs.Int("batch", 64, "queries per submitted batch")
	mixFlag := fs.String("mix", "access=8,call=1,return=1,effring=1", "query mix weights")
	workers := fs.Int("workers", 4, "processors callers borrow to decide their batches (in-process mode)")
	shards := fs.Int("shards", 0, "descriptor-store shards (in-process; 0 = default)")
	queue := fs.Int("queue", 0, "bound on callers waiting for a processor (in-process; 0 = default)")
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

	results, err := experiments(cfg)
	if err == nil && cfg.jsonOut {
		err = exp.WriteJSON(stdout, results)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ringload:", err)
		return 1
	}
	if cfg.jsonOut {
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

// experiments runs what cfg asks for. In-process sections compose: a
// sweep grid, the T15, T16 and T17 experiments, or (when none is asked
// for) one plain trial, all emitted into the same results array, so CI
// gets one artifact from one invocation.
func experiments(cfg config) ([]*exp.Result, error) {
	if cfg.target != "" {
		res, err := remoteTrial(cfg, cfg.target, cfg.transport)
		if err != nil {
			return nil, err
		}
		return []*exp.Result{report(cfg, res, cfg.transport)}, nil
	}
	var results []*exp.Result
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
				scfg.workers, scfg.shards = w, n
				r, err := inProcess(scfg)
				if err != nil {
					return nil, err
				}
				results = append(results, r)
			}
		}
	}
	for _, x := range []struct {
		on  bool
		run func(config) ([]*exp.Result, error)
	}{{cfg.tenants > 1, runT15}, {cfg.compare, runT16}, {cfg.clientCache, runT17}} {
		if x.on {
			rs, err := x.run(cfg)
			if err != nil {
				return nil, err
			}
			results = append(results, rs...)
		}
	}
	if len(results) > 0 {
		return results, nil
	}
	r, err := inProcess(cfg)
	if err != nil {
		return nil, err
	}
	return []*exp.Result{r}, nil
}
