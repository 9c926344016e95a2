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

// BenchmarkReplicaHits decides one warm 64-query batch of the leases
// mix — access, call and return 8:1:1 over a seeded 200-segment image
// in 8 shards, segment numbers reaching a little past the image —
// through a cached RemoteChecker: every query is a hit on its replica.
func BenchmarkReplicaHits(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	segs := make([]service.Segment, 200)
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
	reg := tenant.NewRegistry(tenant.Config{})
	defer reg.Close()
	if _, err := reg.Load(tenant.DefaultTenant, segs, tenant.TenantConfig{Workers: 1, Shards: 8}); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ws := wire.NewServer(reg, wire.Config{})
	go ws.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
	}()
	rc, err := DialRemote(ln.Addr().String(), RemoteConfig{CacheSize: 1, CacheTTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer rc.Close()

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
