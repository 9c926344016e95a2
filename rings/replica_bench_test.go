package rings

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// seededImage returns n segments with seeded sizes, access flags,
// ordered brackets and gate counts, as the leases workload's image.
func seededImage(rng *rand.Rand, n int) []service.Segment {
	segs := make([]service.Segment, n)
	for i := range segs {
		r := []Ring{Ring(rng.Intn(8)), Ring(rng.Intn(8)), Ring(rng.Intn(8))}
		for a := 0; a < 3; a++ {
			for c := a + 1; c < 3; c++ {
				if r[c] < r[a] {
					r[a], r[c] = r[c], r[a]
				}
			}
		}
		segs[i] = service.Segment{Name: fmt.Sprintf("seg%03d", i), Size: 16 + rng.Intn(4080),
			Read: rng.Intn(4) != 0, Write: rng.Intn(2) == 0, Execute: rng.Intn(2) == 0,
			Brackets: Brackets{R1: r[0], R2: r[1], R3: r[2]}, Gates: uint32(rng.Intn(9))}
	}
	return segs
}

// serveTenant loads segs in the given number of shards as the default
// tenant of a fresh registry with one worker, serves the registry over
// the wire on a loopback listener until tb ends, and returns the tenant
// and the listener's address.
func serveTenant(tb testing.TB, segs []service.Segment, shards int) (*tenant.Tenant, string) {
	tb.Helper()
	reg := tenant.NewRegistry(tenant.Config{})
	tb.Cleanup(reg.Close)
	t, err := reg.Load(tenant.DefaultTenant, segs, tenant.TenantConfig{Workers: 1, Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	ws := wire.NewServer(reg, wire.Config{})
	go ws.Serve(ln)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
	})
	return t, ln.Addr().String()
}

// dialCached dials a cached RemoteChecker to addr whose tables never
// expire while tb runs, and closes it when tb ends.
func dialCached(tb testing.TB, addr string) *RemoteChecker {
	tb.Helper()
	rc, err := DialRemote(addr, RemoteConfig{CacheSize: 1, CacheTTL: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rc.Close() })
	return rc
}

// benchHits decides queries through rc b.N times and fails if any batch
// missed its replica.
func benchHits(b *testing.B, rc *RemoteChecker, queries []Query) {
	dst := make([]Decision, len(queries))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rc.CheckInto(queries, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cs := rc.CacheStats(); cs.Misses != 0 {
		b.Fatalf("warm batches missed: %+v", cs)
	}
}

// BenchmarkReplicaHits decides one warm 64-query batch of the leases
// mix — access, call and return 8:1:1 over a seeded 200-segment image
// in 8 shards, segment numbers reaching a little past the image —
// through a cached RemoteChecker: every query is a hit on its replica.
func BenchmarkReplicaHits(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	_, addr := serveTenant(b, seededImage(rng, 200), 8)
	rc := dialCached(b, addr)
	queries := make([]Query, 64)
	for i := range queries {
		q := Query{Ring: Ring(rng.Intn(8)), Segno: uint32(rng.Intn(208)), Wordno: uint32(rng.Intn(4200))}
		switch k := rng.Intn(10); {
		case k < 8:
			q.Op, q.Kind = OpAccess, AccessKind(rng.Intn(3))
		case k == 8:
			q.Op, q.Wordno = OpCall, uint32(rng.Intn(10))
		default:
			eff := Ring(rng.Intn(8))
			q.Op, q.EffRing = OpReturn, &eff
		}
		queries[i] = q
	}
	benchHits(b, rc, queries)
}

// BenchmarkReplicaShards64 decides warm batches of access queries on a
// tenant of 64 shards, four segments each, through a cached
// RemoteChecker: batch1 is one query, which reads one shard's table;
// batch64 is 64 queries over segment numbers drawn across the image.
// A replica that checks more tables than a batch reads pays for the
// shard count here, not for the batch.
func BenchmarkReplicaShards64(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			segs := seededImage(rng, 256)
			_, addr := serveTenant(b, segs, 64)
			rc := dialCached(b, addr)
			queries := make([]Query, n)
			for i := range queries {
				queries[i] = Query{Op: OpAccess, Ring: Ring(rng.Intn(8)), Segno: uint32(rng.Intn(len(segs))),
					Wordno: uint32(rng.Intn(64)), Kind: AccessKind(rng.Intn(3))}
			}
			benchHits(b, rc, queries)
		})
	}
}
