package spec_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/seg"
	"repro/internal/service"
	"repro/internal/spec"
)

// TestModelMatchesService drives the service and the model through the
// same seeded edits and queries, one at a time, and requires identical
// answers: the same accepted and rejected edits, and every decision —
// outcome, violation, error text, shard and epoch stamp — equal. The
// inputs include what clients can get wrong: segment numbers and names
// outside the image, invalid rings, kinds and brackets, and gate counts
// past the bound or the SDW's GATE field.
func TestModelMatchesService(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 << rng.Intn(4)
		segs := randomImage(rng)
		st, err := service.NewStore(service.StoreConfig{Shards: shards}, segs)
		if err != nil {
			t.Fatalf("seed %d: NewStore: %v", seed, err)
		}
		svc, err := service.New(st, service.Config{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		model := spec.New(shards, segs)
		span := uint32(len(segs) + 3)
		for round := 0; round < 40; round++ {
			for e := rng.Intn(3); e > 0; e-- {
				segno := uint32(rng.Intn(int(span)))
				var gotErr, wantErr error
				switch rng.Intn(3) {
				case 0:
					b := core.Brackets{R1: core.Ring(rng.Intn(8)), R2: core.Ring(rng.Intn(8)), R3: core.Ring(rng.Intn(8))}
					gates := uint32(rng.Intn(6))
					if rng.Intn(8) == 0 {
						gates = seg.MaxGate + 1
					}
					r, w, x := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
					gotErr = st.SetBrackets(segno, r, w, x, b, gates)
					wantErr = model.SetBrackets(segno, r, w, x, b, gates)
				case 1:
					gotErr, wantErr = st.Revoke(segno), model.Revoke(segno)
				default:
					gotErr, wantErr = st.Restore(segno), model.Restore(segno)
				}
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d round %d: edit of segment %d: service %v, model %v", seed, round, segno, gotErr, wantErr)
				}
			}
			queries := make([]service.Query, 16)
			for i := range queries {
				queries[i] = randomQuery(rng, segs, span)
			}
			ds, err := svc.Submit(context.Background(), queries)
			if err != nil {
				t.Fatalf("seed %d: Submit: %v", seed, err)
			}
			for i, d := range ds {
				d.Worker = 0
				if want := model.Decide(queries[i]); d != want {
					t.Fatalf("seed %d round %d: query %+v\nservice %+v\n  model %+v", seed, round, queries[i], d, want)
				}
			}
		}
		svc.Close()
	}
}

func randomRing(rng *rand.Rand) core.Ring { return core.Ring(rng.Intn(8)) }

func randomImage(rng *rand.Rand) []service.Segment {
	segs := make([]service.Segment, 1+rng.Intn(20))
	for i := range segs {
		r := []core.Ring{randomRing(rng), randomRing(rng), randomRing(rng)}
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				if r[b] < r[a] {
					r[a], r[b] = r[b], r[a]
				}
			}
		}
		size := rng.Intn(64)
		gates := uint32(rng.Intn(4))
		if rng.Intn(6) == 0 {
			size, gates = seg.MaxGate+rng.Intn(64), seg.MaxGate
		}
		segs[i] = service.Segment{
			Name: fmt.Sprintf("s%d", i), Size: size,
			Read: rng.Intn(4) != 0, Write: rng.Intn(2) == 0, Execute: rng.Intn(2) == 0,
			Brackets: core.Brackets{R1: r[0], R2: r[1], R3: r[2]},
			Gates:    min(gates, uint32(max(size, 1))),
		}
	}
	return segs
}

// randomQuery draws one query of any op, about one in eight of them
// malformed in some field.
func randomQuery(rng *rand.Rand, segs []service.Segment, span uint32) service.Query {
	invalid := func() bool { return rng.Intn(32) == 0 }
	ring := func() core.Ring {
		if invalid() {
			return 8
		}
		return randomRing(rng)
	}
	q := service.Query{Ring: ring(), Segno: uint32(rng.Intn(int(span)))}
	switch {
	case invalid():
		q.Segment = "nonesuch"
	case rng.Intn(2) == 0 && q.Segno < uint32(len(segs)):
		q.Segment, q.Segno = segs[q.Segno].Name, 0
	}
	q.Wordno = uint32(rng.Intn(72))
	if rng.Intn(4) == 0 {
		q.Wordno = uint32(seg.MaxGate - 2 + rng.Intn(4))
	}
	switch rng.Intn(5) {
	case 0, 1:
		q.Op, q.Kind = service.OpAccess, core.AccessKind(rng.Intn(3))
		if invalid() {
			q.Kind = 7
		}
	case 2:
		q.Op, q.SameSegment = service.OpCall, rng.Intn(4) == 0
	case 3:
		q.Op = service.OpReturn
	default:
		q.Op = service.OpEffRing
		q.Chain = make([]service.ChainStep, rng.Intn(4))
		for i := range q.Chain {
			q.Chain[i] = service.ChainStep{PR: rng.Intn(3) == 0, Ring: ring(), Segno: uint32(rng.Intn(int(span)))}
		}
	}
	if q.Op == service.OpCall || q.Op == service.OpReturn {
		if rng.Intn(2) == 0 {
			eff := ring()
			q.EffRing = &eff
		}
	}
	if invalid() {
		q.Op = "frobnicate"
	}
	return q
}
