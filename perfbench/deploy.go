package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

// Serving shape shared by every workload, as in ringload's T16 and T17
// runs: the decision service runs `workers` snapshot-reading workers
// over `shards` descriptor shards.
const (
	workers = 4 // ringload -workers
	// cacheSize is T17's lease-cache size, twice the callers' whole
	// working set, so leases are lost only to shootdowns and TTL
	// expiry, never to eviction.
	cacheSize = 2 * clients * poolBatches * batchSize
	// leaseTTL is T17's: coherence comes from shootdowns, and the TTL
	// only bounds a lease's age should the stream lag.
	leaseTTL = 5 * time.Second
)

// deployment is one running system under test and the client that
// drives it.
type deployment struct {
	client *rings.RemoteChecker
	// counters reads the serving decision service's counters.
	counters func() service.Snapshot
	// leases reads the client's lease-cache counters; nil without one.
	leases func() rings.CacheStats
	// tenant is the served tenant, for supervisor edits.
	tenant *tenant.Tenant
	close  func()
}

// loadTenant builds a registry holding the image as its default tenant.
func loadTenant(im *image) (*tenant.Registry, *tenant.Tenant, error) {
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: workers})
	t, err := reg.Load(tenant.DefaultTenant, im.segs, tenant.TenantConfig{Workers: workers, Shards: shards})
	if err != nil {
		reg.Close()
		return nil, nil, err
	}
	return reg, t, nil
}

// startWire serves the image over a loopback binary wire listener and
// dials it through rings.DialRemote, with a decision-lease cache of
// leaseCap entries when leaseCap > 0.
func startWire(im *image, leaseCap int) (*deployment, error) {
	reg, t, err := loadTenant(im)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	ws := wire.NewServer(reg, wire.Config{})
	served := make(chan error, 1)
	go func() { served <- ws.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := ws.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, wire.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		reg.Close()
		return err
	}
	rc, err := rings.DialRemote(ln.Addr().String(), rings.RemoteConfig{Transport: "wire", CacheSize: leaseCap, CacheTTL: leaseTTL})
	if err != nil {
		return nil, errors.Join(err, stop())
	}
	d := &deployment{client: rc, counters: t.Service().Snapshot, tenant: t}
	if leaseCap > 0 {
		d.leases = rc.CacheStats
	}
	d.close = func() {
		rc.Close()
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: wire shutdown:", err)
		}
	}
	return d, nil
}
