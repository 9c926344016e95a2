// Command perfbench is the decision-service benchmark: it serves a
// seeded descriptor image, drives it with concurrent closed-loop
// callers for a fixed time, checks every decision against an
// independent oracle (the internal/core predicates over the image
// itself), and prints one JSON result line.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload wire --seed 1 --seconds 10 --trace 0
//
// Workloads differ in the path a decision takes:
//
//	wire      rings.DialRemote over the binary wire protocol; the
//	          callers' batches pipeline down its one session
//	leases    the same session behind a decision-lease cache, on a
//	          shared hot query set, while the first caller, doubling as
//	          the supervisor, republishes one descriptor after every
//	          editEvery-th of its batches (each edit shoots down leases)
//
// The traffic is what cmd/ringload ran for the recorded T16 and T17
// experiments (see inputs.go and deploy.go): four closed-loop callers
// share one client and send 64-query batches to four decision workers.
// Those runs were made in a single-CPU container; this process runs
// with GOMAXPROCS=2. With one P, a socket's readiness waits until the
// run queue drains: over six interleaved runs of the same code on a
// 2-vCPU VM, wire's p50 and throughput spread (quartile distance over
// median) 25% and 14% with one P, 8% and 6% with two.
//
// With --trace 0 it reports the end-to-end metrics over the whole timed
// phase: batch latency p50 and p90, decisions per second, and set-up
// time, the median of several cold set-ups. The tail is p90, not p99:
// on leases under 1% of batches miss, so p99 sits where hit batches
// meet the miss tail and moved by 2-5x between runs of the same code.
// A failed call counts as slower than any latency limit and makes the
// result incorrect. With --trace 1 it reports per-layer metrics, each
// with the end-to-end figure it feeds: the client call (batch latency,
// p99 included); probes timing the decision service (part of batch
// latency on wire) and the wire codec on the same batches; service
// batches and shed batches (throughput); and the lease cache's hits,
// misses, hit ratio and shootdowns (on leases, misses set the tail and
// bound throughput).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

const (
	warmup     = 500 * time.Millisecond // untimed traffic before the clock starts
	setups     = 21                     // set-ups per run; setup_s is their median
	probeEvery = 4                      // traced runs probe every probeEvery-th batch
	// editEvery paces the leases workload's supervisor edits by traffic,
	// not by the clock, so the share of batches that miss after a
	// shootdown is the same on a fast host as on a slow one. One edit
	// per 32 of the first caller's batches, about 128 of all callers',
	// is roughly 1000 edits a second on a 2-vCPU VM: the top cell of
	// ringload's T17 grid (0, 100, 1000).
	editEvery = 32
	// failedCall is the latency a failed call is counted with: beyond
	// any latency limit.
	failedCall = time.Duration(math.MaxInt64)
)

// workloads maps each workload name to its deployment and input shape.
var workloads = map[string]struct {
	start  func(*image) (*deployment, error)
	leases bool // a shared hot query set while the supervisor edits
}{
	"wire":   {start: func(im *image) (*deployment, error) { return startWire(im, 0) }},
	"leases": {start: func(im *image) (*deployment, error) { return startWire(im, cacheSize) }, leases: true},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "wire or leases")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	runtime.GOMAXPROCS(2)
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		return 2
	}
	rng := rand.New(rand.NewSource(*seed))
	im := genImage(rng)
	pools := genPools(rng, im, wl.leases)
	edited := uint32(rng.Intn(numSegments)) // the leases supervisor's segment

	// Set up several times, each from a heap returned to the OS so every
	// set-up pays for fresh memory, and keep the last deployment.
	n := setups
	if *trace != 0 {
		n = 1
	}
	var d *deployment
	times := make([]float64, n)
	for i := range times {
		if d != nil {
			d.close()
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if d, err = wl.start(im); err == nil {
			err = d.client.CheckInto(pools[0][0].queries, make([]service.Decision, batchSize))
		}
		times[i] = time.Since(t0).Seconds()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			if d != nil {
				d.close()
			}
			return 1
		}
	}
	defer d.close()

	var pr *prober
	if *trace != 0 {
		var err error
		if pr, err = newProber(im); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: probe tenant:", err)
			return 1
		}
		defer pr.reg.Close()
	}

	var ed *editor
	if wl.leases {
		ed = &editor{t: d.tenant, segno: edited, seg: im.segs[edited]}
	}
	warm := drive(d, pools, warmup, nil, ed)
	runtime.GC()
	before := readLayers(d)
	res := drive(d, pools, time.Duration(*seconds*float64(time.Second)), pr, ed)
	after := readLayers(d)
	if ed != nil && ed.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: supervisor edit:", ed.err)
		return 1
	}
	res.add(&warm.tally)

	hits := after.cache.Hits - before.cache.Hits
	misses := after.cache.Misses - before.cache.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	metrics := map[string]metric{}
	if *trace == 0 {
		metrics["batch_p50_us"] = metric{res.lat.quantile(0.50), "us"}
		metrics["batch_p90_us"] = metric{res.lat.quantile(0.90), "us"}
		metrics["decisions_per_s"] = metric{float64(res.measured) / res.elapsed.Seconds(), "1/s"}
		metrics["setup_s"] = metric{median(times), "s"}
	} else {
		metrics["call_p50_us"] = metric{res.lat.quantile(0.50), "us"}
		metrics["call_p99_us"] = metric{res.lat.quantile(0.99), "us"}
		metrics["service_p50_us"] = metric{res.svc.quantile(0.50), "us"}
		metrics["wire_codec_p50_us"] = metric{res.codec.quantile(0.50), "us"}
		metrics["service_batches"] = metric{float64(after.svc.Batches - before.svc.Batches), "count"}
		metrics["service_rejected"] = metric{float64(after.svc.Rejected - before.svc.Rejected), "count"}
		metrics["lease_hits"] = metric{float64(hits), "count"}
		metrics["lease_misses"] = metric{float64(misses), "count"}
		metrics["lease_hit_ratio"] = metric{hitRatio, "ratio"}
		metrics["lease_shootdowns"] = metric{float64(after.cache.Shootdowns - before.cache.Shootdowns), "count"}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d decisions, %d batches in %v (p50 %.2fus p90 %.2fus p99 %.2fus, lease hit ratio %.4f), %d wrong, %d failed\n",
		*name, *seed, res.measured, res.lat.n, res.elapsed.Round(time.Millisecond),
		res.lat.quantile(0.5), res.lat.quantile(0.9), res.lat.quantile(0.99), hitRatio, res.wrong, res.failed)
	out, err := json.Marshal(result{
		Correct:   res.wrong == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed + res.wrong,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts queries: attempted, in failed calls, and answered
// differently from the oracle.
type tally struct{ attempted, failed, wrong uint64 }

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
}

// check counts the decisions in got that disagree with want.
func (t *tally) check(got, want []service.Decision) {
	for i := range want {
		if !matches(&got[i], &want[i]) {
			t.wrong++
		}
	}
}

// phase is one timed phase's measurements, of one caller or merged.
type phase struct {
	tally
	measured   uint64 // decisions answered without error
	elapsed    time.Duration
	lat        hist // client call per batch, a failed one at failedCall
	svc, codec hist // traced probes
}

func (p *phase) merge(o *phase) {
	p.tally.add(&o.tally)
	p.measured += o.measured
	p.lat.merge(&o.lat)
	p.svc.merge(&o.svc)
	p.codec.merge(&o.codec)
}

// drive runs one closed-loop caller per pool for dur, all through the
// deployment's one client, and merges what they measured. The first
// caller also makes ed's edits, when ed is not nil.
func drive(d *deployment, pools [][]batch, dur time.Duration, pr *prober, ed *editor) *phase {
	parts := make([]phase, len(pools))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range pools {
		e := ed
		if c > 0 {
			e = nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[c].loop(d, pools[c], deadline, pr, e)
		}()
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start)}
	for i := range parts {
		p.merge(&parts[i])
	}
	return p
}

// loop sends pool's batches in turn until deadline, each as soon as the
// previous answer is checked, and has ed edit after every editEvery-th.
func (p *phase) loop(d *deployment, pool []batch, deadline time.Time, pr *prober, ed *editor) {
	var ps *probeScratch
	if pr != nil {
		ps = newProbeScratch()
	}
	dst := make([]service.Decision, batchSize)
	for i := 0; time.Now().Before(deadline); i++ {
		b := &pool[i%len(pool)]
		n := uint64(len(b.queries))
		p.attempted += n
		t0 := time.Now()
		if err := d.client.CheckInto(b.queries, dst); err != nil {
			p.failed += n
			p.lat.add(failedCall)
			continue
		}
		p.lat.add(time.Since(t0))
		p.measured += n
		p.check(dst, b.want)
		if ps != nil && i%probeEvery == 0 {
			pr.probe(b, p, ps)
		}
		if ed != nil && i%editEvery == editEvery-1 {
			ed.edit()
		}
	}
}

// layers is a snapshot of the program's own counters.
type layers struct {
	svc   service.Snapshot
	cache rings.CacheStats
}

func readLayers(d *deployment) layers {
	l := layers{svc: d.counters()}
	if d.leases != nil {
		l.cache = d.leases()
	}
	return l
}

// prober times single layers on the workload's own batches: the
// decision service through a private tenant of the same image (queue
// hand-off, snapshot pins and decide, with no transport), and the wire
// codec (request and response, encoded and decoded) with no socket.
type prober struct {
	reg *tenant.Registry
	t   *tenant.Tenant
}

func newProber(im *image) (*prober, error) {
	reg, t, err := loadTenant(im)
	if err != nil {
		return nil, err
	}
	return &prober{reg: reg, t: t}, nil
}

// probeScratch is the prober's reusable buffers.
type probeScratch struct {
	dst, dec  []service.Decision
	req, resp []byte
	batch     wire.Batch
}

func newProbeScratch() *probeScratch {
	return &probeScratch{dst: make([]service.Decision, batchSize), dec: make([]service.Decision, batchSize)}
}

func (pr *prober) probe(b *batch, p *phase, s *probeScratch) {
	p.attempted += 2 * uint64(len(b.queries)) // both probes' answers are checked
	t0 := time.Now()
	err := pr.t.SubmitInto(context.Background(), b.queries, s.dst)
	p.svc.add(time.Since(t0))
	if err != nil {
		p.failed += 2 * uint64(len(b.queries))
		return
	}
	p.check(s.dst, b.want)

	t0 = time.Now()
	s.req, err = wire.EncodeCheck(s.req, 1, b.queries)
	if err == nil {
		err = wire.DecodeCheckInto(s.req[wire.HeaderLen:], &s.batch)
	}
	if err == nil {
		s.resp, err = wire.EncodeDecisions(s.resp, 1, s.dst)
	}
	if err == nil {
		_, err = wire.DecodeDecisionsInto(s.resp[wire.HeaderLen:], s.dec)
	}
	p.codec.add(time.Since(t0))
	if err != nil {
		p.failed += uint64(len(b.queries))
		return
	}
	p.check(s.dec, b.want)
}

// editor is the leases workload's supervisor, as ringload's T17
// supervisor edits one segment. Each edit writes the descriptor's own
// values back: the shard epoch advances and every subscribed lease
// cache is shot down, while the oracle's answers stay valid.
type editor struct {
	t     *tenant.Tenant
	segno uint32
	seg   service.Segment
	err   error // the first failed edit's; no edits are made after it
}

func (e *editor) edit() {
	if e.err == nil {
		s := &e.seg
		e.err = e.t.Store().SetBrackets(e.segno, s.Read, s.Write, s.Execute, s.Brackets, s.Gates)
	}
}
