package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/service"
)

// Input shape. Every workload decides against one seeded image of
// numSegments segments; queries target segment numbers below segnoSpan,
// so the few numbers past the image decide as missing segments.
//
// The traffic is cmd/ringload's, as recorded for the T16 transport and
// T17 lease experiments: `clients` closed-loop callers sharing one
// client, batchSize queries per call, an access:call:return:effring mix
// of 8:1:1:1, and poolBatches batches per caller, cycled.
const (
	numSegments = 200
	segnoSpan   = 208
	shards      = 8  // descriptor-store shards (the service default)
	clients     = 4  // ringload -c
	batchSize   = 64 // ringload -batch
	poolBatches = 16 // ringload's per-client pool
	// hotQueries is the leases workload's query set, as many queries as
	// one caller's pool. All callers draw from it, so after a shootdown
	// several can miss the same key at once: the case the lease cache's
	// single-flight serves.
	hotQueries = poolBatches * batchSize
)

// image is the seeded descriptor image and, for every target segment
// number, the access-control view the oracle decides from.
type image struct {
	segs  []service.Segment
	views [segnoSpan]core.SDWView // zero (not present) past the image
}

func genImage(rng *rand.Rand) *image {
	im := &image{}
	for i := 0; i < numSegments; i++ {
		r := [3]core.Ring{core.Ring(rng.Intn(8)), core.Ring(rng.Intn(8)), core.Ring(rng.Intn(8))}
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				if r[b] < r[a] {
					r[a], r[b] = r[b], r[a]
				}
			}
		}
		s := service.Segment{
			Name:     fmt.Sprintf("seg%03d", i),
			Size:     16 + rng.Intn(4080),
			Read:     rng.Intn(4) != 0,
			Write:    rng.Intn(2) == 0,
			Execute:  rng.Intn(2) == 0,
			Brackets: core.Brackets{R1: r[0], R2: r[1], R3: r[2]},
			Gates:    uint32(rng.Intn(9)),
		}
		im.segs = append(im.segs, s)
		im.views[i] = core.SDWView{Present: true, Read: s.Read, Write: s.Write, Execute: s.Execute,
			Brackets: s.Brackets, GateCount: s.Gates, Bound: uint32(s.Size)}
	}
	return im
}

// genQuery draws one query from the 8:1:1:1 mix, or, with leaseable
// set, from 8:1:1 without effective-ring chains: like ringload's lease
// experiment, since a chain across shards is never leased and one in a
// batch sends the whole batch over the wire. Word numbers reach a
// little past each segment's bound and call offsets a little past the
// largest gate list, so every fault kind occurs.
func genQuery(rng *rand.Rand, im *image, leaseable bool) service.Query {
	segno := uint32(rng.Intn(segnoSpan))
	ring := core.Ring(rng.Intn(8))
	bound := 64
	if v := im.views[segno]; v.Present {
		bound = int(v.Bound)
	}
	wordno := uint32(rng.Intn(bound + bound/16 + 1))
	weights := 11
	if leaseable {
		weights = 10
	}
	switch pick := rng.Intn(weights); {
	case pick < 8:
		return service.Query{Op: service.OpAccess, Ring: ring, Segno: segno, Wordno: wordno,
			Kind: core.AccessKind(rng.Intn(3))}
	case pick == 8:
		q := service.Query{Op: service.OpCall, Ring: ring, Segno: segno, Wordno: uint32(rng.Intn(10)),
			SameSegment: rng.Intn(10) == 0}
		if rng.Intn(2) == 0 {
			eff := ring + core.Ring(rng.Intn(8-int(ring)))
			q.EffRing = &eff
		}
		return q
	case pick == 9:
		eff := core.Ring(rng.Intn(8))
		return service.Query{Op: service.OpReturn, Ring: ring, Segno: segno, Wordno: wordno, EffRing: &eff}
	default:
		chain := make([]service.ChainStep, 1+rng.Intn(3))
		for i := range chain {
			if rng.Intn(2) == 0 {
				chain[i] = service.ChainStep{PR: true, Ring: core.Ring(rng.Intn(8))}
			} else {
				chain[i] = service.ChainStep{Ring: core.Ring(rng.Intn(8)), Segno: uint32(rng.Intn(segnoSpan))}
			}
		}
		return service.Query{Op: service.OpEffRing, Ring: ring, Chain: chain}
	}
}

// batch is one CheckInto call's queries and the oracle's answers.
type batch struct {
	queries []service.Query
	want    []service.Decision
}

// genPools builds each caller's pool of poolBatches batches, which the
// caller cycles. With hot set, every query is drawn from one shared set
// of hotQueries leaseable queries; otherwise each is drawn afresh.
func genPools(rng *rand.Rand, im *image, hot bool) [][]batch {
	var hotSet []service.Query
	if hot {
		hotSet = make([]service.Query, hotQueries)
		for i := range hotSet {
			hotSet[i] = genQuery(rng, im, true)
		}
	}
	pools := make([][]batch, clients)
	for c := range pools {
		pools[c] = make([]batch, poolBatches)
		for p := range pools[c] {
			b := batch{queries: make([]service.Query, batchSize), want: make([]service.Decision, batchSize)}
			for i := range b.queries {
				if hot {
					b.queries[i] = hotSet[rng.Intn(len(hotSet))]
				} else {
					b.queries[i] = genQuery(rng, im, false)
				}
				b.want[i] = im.expect(&b.queries[i])
			}
			pools[c][p] = b
		}
	}
	return pools
}

// expect is the oracle: the decision the paper's Figures 4-9 give for
// q, computed from the image's own views with the internal/core
// predicates alone — no store, snapshot, MMU, transport or cache.
func (im *image) expect(q *service.Query) service.Decision {
	d := service.Decision{Shard: -1}
	setKind := func(k core.ViolationKind) {
		if k == core.ViolationNone {
			d.Allowed = true
			return
		}
		d.Violation, d.ViolationKind = k.String(), k
	}
	effRing := q.Ring
	if q.EffRing != nil {
		effRing = *q.EffRing
	}
	v := im.views[q.Segno]
	switch q.Op {
	case service.OpAccess:
		d.Shard = int(q.Segno % shards)
		switch q.Kind {
		case core.AccessRead:
			setKind(core.ReadCheck(v, q.Wordno, q.Ring))
		case core.AccessWrite:
			setKind(core.WriteCheck(v, q.Wordno, q.Ring))
		default:
			setKind(core.FetchCheck(v, q.Wordno, q.Ring))
		}
	case service.OpCall:
		d.Shard = int(q.Segno % shards)
		dec, k := core.CallCheck(v, q.Wordno, q.Ring, effRing, q.SameSegment)
		setKind(k)
		if k == core.ViolationNone {
			d.Outcome, d.NewRing = dec.Outcome.String(), dec.NewRing
			d.Trapped = dec.Outcome == core.CallUpwardTrap
		}
	case service.OpReturn:
		d.Shard = int(q.Segno % shards)
		dec, k := core.ReturnCheck(v, q.Wordno, q.Ring, effRing)
		setKind(k)
		if k == core.ViolationNone {
			d.Outcome, d.NewRing = dec.Outcome.String(), dec.NewRing
			d.Trapped = dec.Outcome == core.ReturnDownwardTrap
		}
	case service.OpEffRing:
		// A chain names a shard only when its indirect steps all lie in
		// one; otherwise (or with none) its epoch is a store-wide sum.
		sh, single := -1, true
		for _, step := range q.Chain {
			if step.PR {
				continue
			}
			if s := int(step.Segno % shards); sh == -1 {
				sh = s
			} else if sh != s {
				single = false
			}
		}
		if single {
			d.Shard = sh
		}
		eff := q.Ring
		for _, step := range q.Chain {
			if step.PR {
				eff = core.EffectiveRingPR(eff, step.Ring)
				continue
			}
			cv := im.views[step.Segno]
			if k := core.ReadCheck(cv, 0, eff); k != core.ViolationNone {
				setKind(k)
				return d
			}
			eff = core.EffectiveRingIndirect(eff, step.Ring, cv.R1)
		}
		d.Allowed, d.NewRing = true, eff
	}
	return d
}

// matches reports whether a served decision agrees with the oracle's
// and carries a clean epoch interval: one even publication epoch.
func matches(got, want *service.Decision) bool {
	return got.Err == "" &&
		got.Allowed == want.Allowed &&
		got.ViolationKind == want.ViolationKind &&
		got.Violation == want.Violation &&
		got.Outcome == want.Outcome &&
		got.NewRing == want.NewRing &&
		got.Trapped == want.Trapped &&
		got.Shard == want.Shard &&
		got.VersionLo == got.VersionHi &&
		got.VersionLo%2 == 0
}
