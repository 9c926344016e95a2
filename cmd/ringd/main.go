// Command ringd is the protection-decision daemon: an image registry
// serving N independent descriptor spaces (tenants) from one process.
// Each loaded machine image becomes a tenant with its own sharded
// descriptor store, its own decision processors — borrowed by a request
// to decide its batch on a decider over the immutable RCU descriptor
// snapshots it pins for that batch, so decisions never lock against
// supervisor edits — and its own bound on requests waiting for a
// processor, so one hot tenant sheds its own overload instead of
// starving the rest.
//
// Usage:
//
//	ringd [-addr :8642] [-listen-wire :8643] [-workers 4] [-queue 64]
//	      [-batch 1024] [-shards 8] [-image image.json]
//	      [-max-tenants 16] [-worker-budget 64] [-image-dir dir]
//
// Endpoints:
//
//	GET  /v1/images              list loaded images, states, budgets
//	POST /v1/images              load an image as a new tenant
//	GET  /v1/images/{name}       one tenant's status and metrics
//	POST /v1/images/{name}/seal  freeze the tenant's descriptor space
//	POST /v1/images/{name}/evict drain and remove the tenant
//	POST /v1/t/{name}/check      tenant-scoped decision batch
//	POST /v1/t/{name}/mutate     tenant-scoped supervisor edit
//	GET  /v1/t/{name}/healthz    tenant liveness and image shape
//	GET  /v1/t/{name}/metrics    tenant decision/fault/RCU/lease counters
//
//	POST /v1/check   \
//	POST /v1/mutate   | single-tenant surface: the tenant named
//	GET  /healthz     | "default"
//	GET  /metrics    /
//
// With -listen-wire, a second TCP listener serves the binary streaming
// protocol (internal/wire): one persistent connection per client,
// pipelined length-prefixed decision batches with client-assigned
// correlation IDs, the same tenant semantics as /v1/t/{name} (a session
// binds its tenant at the Hello handshake; seal/drain races answer
// 409-equivalent error frames). A session that sends a Subscribe frame
// additionally receives the tenant's descriptor-invalidation stream:
// a Shootdown push for each shard whose published table moved, naming
// the table's epoch and the segment whose edit published it (edits
// that land before a push is written coalesce into one), and a final
// LeaseExpire when the tenant is evicted — the feed a client-side SDW
// replica (rings.DialRemote with CacheSize) stays coherent by. A Fetch
// frame answers the published descriptor tables of the shards it
// names, each stamped with its even epoch, which is how the replica
// fills and refreshes itself. Per-tenant subscriber/shootdown/expire
// counters appear under "leases" in /metrics. See DESIGN.md "Wire
// protocol" and "Client SDW replicas".
//
// The startup image (the -image file, or a built-in demonstration
// image) is loaded as the tenant named "default". Image files are JSON
// objects {"segments": [...]}, each segment carrying a name, size,
// access flags, ring brackets and gate count; POST /v1/images accepts
// the same segments inline, or a "file" name resolved inside -image-dir
// when that flag is set. Mutations against a sealed or draining tenant
// answer 409. Request bodies over 1 MiB answer 413, and HTTP
// connections that stall mid-request, mid-response or idle are closed.
// On SIGINT/SIGTERM the daemon stops accepting, drains every tenant's
// decision queue and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Test hooks: when non-nil, testHookReady receives the bound HTTP
// listen address (and testHookWireReady the bound wire address) once
// serving, closing testHookShutdown triggers the same graceful drain a
// signal would, and testHookHTTPServer may adjust the HTTP server
// before it serves.
var (
	testHookReady      chan<- string
	testHookWireReady  chan<- string
	testHookShutdown   <-chan struct{}
	testHookHTTPServer func(*http.Server)
)

// Bounds on every HTTP connection: a peer that stalls sending its
// request headers or body, or reading the response, is disconnected,
// and an idle keep-alive connection is closed.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// loadImage reads a JSON image file, or returns the demo image for an
// empty path.
func loadImage(path string) ([]service.Segment, error) {
	if path == "" {
		return tenant.DemoImage(), nil
	}
	return tenant.LoadImageFile(path)
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8642", "listen address")
	wireAddr := fs.String("listen-wire", "", "TCP address for the binary streaming protocol (disabled when empty)")
	workers := fs.Int("workers", 4, "default tenant's processors: batches it decides at once, each from pinned snapshots")
	queue := fs.Int("queue", 64, "per tenant, the bound on callers waiting for a processor (one more answers 429)")
	batchLimit := fs.Int("batch", 1024, "maximum queries per batch")
	shards := fs.Int("shards", 0, "descriptor-store shards per tenant (power of two; 0 = default 8)")
	imagePath := fs.String("image", "", "default tenant's machine image JSON (built-in demo image when empty)")
	maxTenants := fs.Int("max-tenants", 16, "maximum simultaneously loaded images")
	workerBudget := fs.Int("worker-budget", 64, "total processors across all tenants")
	imageDir := fs.String("image-dir", "", "directory POST /v1/images may load \"file\" images from (disabled when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	defs, err := loadImage(*imagePath)
	if err != nil {
		fmt.Fprintln(stderr, "ringd:", err)
		return 1
	}
	reg := tenant.NewRegistry(tenant.Config{
		MaxTenants:   *maxTenants,
		WorkerBudget: *workerBudget,
		Defaults: tenant.TenantConfig{
			Workers:    2,
			QueueDepth: *queue,
			BatchLimit: *batchLimit,
			Shards:     *shards,
		},
	})
	def, err := reg.Load(tenant.DefaultTenant, defs, tenant.TenantConfig{
		Workers:    *workers,
		QueueDepth: *queue,
		BatchLimit: *batchLimit,
		Shards:     *shards,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ringd:", err)
		return 1
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{ImageDir: *imageDir})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ringd:", err)
		h.Close()
		return 1
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	if testHookHTTPServer != nil {
		testHookHTTPServer(hs)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// The wire listener shares the registry, so both transports answer
	// from the same descriptor snapshots.
	var ws *wire.Server
	wireErr := make(chan error, 1)
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			fmt.Fprintln(stderr, "ringd:", err)
			h.Close()
			return 1
		}
		ws = wire.NewServer(reg, wire.Config{})
		go func() { wireErr <- ws.Serve(wln) }()
		fmt.Fprintf(stdout, "ringd: wire protocol v%d on %s\n", wire.Version, wln.Addr())
		if testHookWireReady != nil {
			testHookWireReady <- wln.Addr().String()
		}
	}

	fmt.Fprintf(stdout, "ringd: serving image %q (%d segments) on %s (%d workers, queue %d, %d shards; up to %d tenants over %d workers)\n",
		def.Name(), len(defs), ln.Addr(), def.Service().Workers(), def.Service().QueueDepth(),
		def.Store().Shards(), *maxTenants, *workerBudget)
	if testHookReady != nil {
		testHookReady <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "ringd:", err)
		h.Close()
		return 1
	case err := <-wireErr:
		fmt.Fprintln(stderr, "ringd:", err)
		h.Close()
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "ringd: %v: draining %d tenants\n", s, reg.Len())
	case <-testHookShutdown:
		fmt.Fprintf(stdout, "ringd: shutdown requested: draining %d tenants\n", reg.Len())
	}

	// Graceful shutdown: stop accepting, finish in-flight HTTP requests
	// and drain wire sessions (accepted batches complete, each session
	// ends with a GoAway), then drain every tenant's decision queue.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "ringd: shutdown:", err)
	}
	if ws != nil {
		if err := ws.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "ringd: wire shutdown:", err)
		}
	}
	h.Close()
	fmt.Fprintln(stdout, "ringd: drained, exiting")
	return 0
}
