package rings

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// RemoteConfig sizes a RemoteChecker built with DialRemote. The zero
// value picks the transport from the target's scheme and the "default"
// tenant.
type RemoteConfig struct {
	// Transport selects "http" (request/response JSON against ringd's
	// /v1 surface) or "wire" (one persistent binary streaming session,
	// pipelined batches). Empty infers from the target: an http:// or
	// https:// URL means HTTP, a wire:// URL or bare host:port means
	// wire.
	Transport string
	// Tenant names the image the session decides against; empty means
	// "default". Over HTTP this routes through /v1/t/{name}; over the
	// wire the session binds the tenant at the Hello handshake.
	Tenant string
	// Timeout bounds each HTTP request. Over the wire it bounds the dial
	// and handshake and then every call: a session with calls pending
	// that receives no frame for Timeout fails, its calls return an
	// error, and a cached checker's next call redials. Default 30s.
	Timeout time.Duration

	// CacheSize only switches the replica on: any positive value puts
	// an SDW replica in front of the session (wire transport only), and
	// its size is not a bound, since a tenant's tables hold at most
	// service.MaxSegments SDWs. The client keeps every shard's
	// descriptor table, fetched at an even publication epoch and kept
	// coherent by the server's shootdown stream, and decides each query
	// locally; CacheTTL bounds a table's staleness. See replica.go for
	// the staleness argument.
	CacheSize int
	// CacheTTL bounds how long a fetched table may be decided from if
	// the shootdown stream lags; default 1s when CacheSize is set.
	CacheTTL time.Duration
}

// RemoteChecker is Checker's remote mode: the same batch-decision
// surface served by a running ringd, over either transport. A single
// RemoteChecker is safe for concurrent use; on the wire transport
// concurrent CheckInto calls pipeline down one session and complete
// out of order by correlation ID.
type RemoteChecker struct {
	// wcp holds the wire session (nil on the HTTP transport); cached
	// checkers swap in a fresh session when their replica lapses and a
	// redial succeeds.
	wcp      atomic.Pointer[wire.Client]
	wireAddr string
	wcfg     wire.ClientConfig

	cache      *cacheCounters          // nil when dialed without CacheSize
	ttl        time.Duration           // a fetched table's lifetime
	rep        atomic.Pointer[replica] // the current session's replica
	redialMu   sync.Mutex
	lastRedial atomic.Int64 // the last redial's monotonic() instant; 0 before the first
	closed     atomic.Bool

	hc     *http.Client
	target string // HTTP base URL, tenant-scoped
	health string // HTTP healthz URL
}

// RemoteHealth is the served image's shape, from GET /healthz or a
// wire ping frame.
type RemoteHealth struct {
	Workers  int
	Segments int
	Shards   int
	Version  uint64
}

// DialRemote connects to a ringd at target. HTTP targets are base
// URLs ("http://host:8642"); wire targets are "wire://host:8643" or a
// bare "host:8643". The wire transport holds one TCP session open
// until Close.
func DialRemote(target string, cfg RemoteConfig) (*RemoteChecker, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	transport := cfg.Transport
	if transport == "" {
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
			transport = "http"
		} else {
			transport = "wire"
		}
	}
	switch transport {
	case "http":
		if cfg.CacheSize > 0 {
			return nil, errors.New("rings: an SDW replica requires the wire transport (no shootdown stream over HTTP)")
		}
		base := strings.TrimSuffix(target, "/")
		rc := &RemoteChecker{
			hc:     &http.Client{Timeout: cfg.Timeout},
			target: base,
			health: base + "/healthz",
		}
		if cfg.Tenant != "" {
			rc.target = base + "/v1/t/" + cfg.Tenant
			rc.health = rc.target + "/healthz"
		} else {
			rc.target = base + "/v1"
		}
		return rc, nil
	case "wire":
		rc := &RemoteChecker{wireAddr: strings.TrimPrefix(target, "wire://")}
		rc.wcfg = wire.ClientConfig{Tenant: cfg.Tenant, Timeout: cfg.Timeout}
		if cfg.CacheSize <= 0 {
			wc, err := wire.Dial(rc.wireAddr, rc.wcfg)
			if err != nil {
				return nil, err
			}
			rc.wcp.Store(wc)
			return rc, nil
		}
		rc.cache, rc.ttl = &cacheCounters{}, cfg.CacheTTL
		if rc.ttl <= 0 {
			rc.ttl = time.Second
		}
		r, err := rc.dialReplica()
		if err != nil {
			return nil, err
		}
		rc.rep.Store(r)
		rc.wcp.Store(r.wc)
		return rc, nil
	default:
		return nil, fmt.Errorf("rings: unknown remote transport %q", cfg.Transport)
	}
}

// Close releases the transport (the wire session sends nothing further
// and hangs up).
func (rc *RemoteChecker) Close() error {
	rc.closed.Store(true)
	if wc := rc.wcp.Load(); wc != nil {
		return wc.Close()
	}
	rc.hc.CloseIdleConnections()
	return nil
}

// Check answers a batch of queries against the remote image.
func (rc *RemoteChecker) Check(queries ...Query) ([]Decision, error) {
	dst := make([]Decision, len(queries))
	if err := rc.CheckInto(queries, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// CheckInto answers a batch into a caller-supplied decision slice,
// mirroring Checker.CheckInto. A shed batch (the remote queue was
// full) reports ErrQueueFull, whichever transport carried it.
func (rc *RemoteChecker) CheckInto(queries []Query, dst []Decision) error {
	if len(dst) < len(queries) {
		return errors.New("rings: dst shorter than queries")
	}
	if rc.cache != nil {
		return rc.cachedCheckInto(queries, dst)
	}
	if wc := rc.wcp.Load(); wc != nil {
		return mapWireErr(wc.CheckInto(queries, dst))
	}
	body, err := json.Marshal(service.NewCheckRequest(queries))
	if err != nil {
		return err
	}
	resp, err := rc.hc.Post(rc.target+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return ErrQueueFull
	}
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	var cr service.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return err
	}
	if len(cr.Decisions) != len(queries) {
		return fmt.Errorf("rings: %d decisions for %d queries", len(cr.Decisions), len(queries))
	}
	copy(dst, cr.Decisions)
	return nil
}

// Health reports the served image's shape.
func (rc *RemoteChecker) Health() (RemoteHealth, error) {
	if wc := rc.wcp.Load(); wc != nil {
		h, err := wc.Ping()
		if err != nil {
			return RemoteHealth{}, mapWireErr(err)
		}
		return RemoteHealth{Workers: int(h.Workers), Segments: int(h.Segments),
			Shards: int(h.Shards), Version: h.StoreVersion}, nil
	}
	resp, err := rc.hc.Get(rc.health)
	if err != nil {
		return RemoteHealth{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return RemoteHealth{}, httpError(resp)
	}
	var h service.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return RemoteHealth{}, err
	}
	if !h.OK {
		return RemoteHealth{}, errors.New("rings: remote unhealthy")
	}
	return RemoteHealth{Workers: h.Workers, Segments: h.Segments, Shards: h.Shards, Version: h.Version}, nil
}

// mapWireErr folds the wire transport's shed frame back into the
// vocabulary in-process callers already handle.
func mapWireErr(err error) error {
	var ef *wire.ErrFrame
	if errors.As(err, &ef) && ef.Code == wire.CodeShed {
		return ErrQueueFull
	}
	return err
}

// httpError reads a JSON error body into an error value.
func httpError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(msg, &e) == nil && e.Error != "" {
		return fmt.Errorf("rings: remote: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("rings: remote: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
}
