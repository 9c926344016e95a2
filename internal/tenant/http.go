package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/service"
)

// Handler is the multi-tenant HTTP face of a Registry — the ringd
// daemon's handler. Endpoints:
//
//	GET    /v1/images               — list loaded images and budgets
//	POST   /v1/images               — load an image (inline segments or
//	                                  a file under the image directory)
//	GET    /v1/images/{name}        — one tenant's status and metrics
//	POST   /v1/images/{name}/seal   — freeze the descriptor space
//	POST   /v1/images/{name}/evict  — drain and remove (DELETE works too)
//	POST   /v1/t/{name}/check       — tenant-scoped decision batch
//	POST   /v1/t/{name}/mutate      — tenant-scoped supervisor edit
//	GET    /v1/t/{name}/healthz     — tenant liveness and image shape
//	GET    /v1/t/{name}/metrics     — tenant decision/fault/RCU/lease counters
//
// plus the single-tenant surface — /v1/check, /v1/mutate, /healthz,
// /metrics — which serves the tenant named "default" (the golden HTTP
// fixtures under testdata/golden pin its bodies byte for byte). Check
// and healthz bodies use the JSON schema declared in internal/service;
// every JSON request body is bounded by maxBody.
//
// Lifecycle conflicts map to HTTP as follows: a mutation against a
// sealed or draining tenant answers 409 (conflict — the descriptor
// space is frozen or going away), a decision against a draining tenant
// answers 503 with Retry-After (the drain is transient from the
// fleet's point of view: retry another replica), and anything against
// an evicted tenant answers 404.
type Handler struct {
	reg *Registry
	mux *http.ServeMux
	// imageDir, when non-empty, permits POST /v1/images to read image
	// files from inside this directory ("file" loads are rejected
	// otherwise — the management API must not become a file oracle).
	imageDir string
}

// HandlerOptions configures a Handler.
type HandlerOptions struct {
	// ImageDir permits "file" loads from inside this directory; empty
	// disables file loads.
	ImageDir string
}

// NewHandler wraps reg in the multi-tenant HTTP API.
func NewHandler(reg *Registry, opt HandlerOptions) *Handler {
	h := &Handler{reg: reg, mux: http.NewServeMux(), imageDir: opt.ImageDir}
	h.mux.HandleFunc("GET /v1/images", h.handleList)
	h.mux.HandleFunc("POST /v1/images", h.handleLoad)
	h.mux.HandleFunc("GET /v1/images/{name}", h.handleDetail)
	h.mux.HandleFunc("DELETE /v1/images/{name}", h.handleEvict)
	h.mux.HandleFunc("POST /v1/images/{name}/seal", h.handleSeal)
	h.mux.HandleFunc("POST /v1/images/{name}/evict", h.handleEvict)
	h.mux.HandleFunc("/v1/t/{name}/{endpoint}", h.handleTenant)
	h.mux.HandleFunc("/v1/check", h.onDefault("check"))
	h.mux.HandleFunc("/v1/mutate", h.onDefault("mutate"))
	h.mux.HandleFunc("/healthz", h.handleHealthz)
	h.mux.HandleFunc("/metrics", h.onDefault("metrics"))
	return h
}

// Registry returns the underlying registry.
func (h *Handler) Registry() *Registry { return h.reg }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Close evicts every tenant (daemon shutdown). Call after the HTTP
// listener has stopped accepting so in-flight requests complete first.
func (h *Handler) Close() { h.reg.Close() }

type errorResponse struct {
	Error string `json:"error"`
}

// maxBody bounds every JSON request body the handler decodes: the
// 1 MiB the wire protocol bounds a frame by (wire.DefaultMaxFrame),
// enforced while the body is read.
const maxBody = 1 << 20

// writeJSON writes v as the response body in the daemon's one wire
// style (two-space indent).
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeBody decodes r's JSON body into v, answering 413 for a body
// longer than maxBody and 400 for a malformed one. It reports whether v
// was filled.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", maxBody)})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
	}
	return false
}

// Status maps a rejected check (mutation false) or edit (mutation
// true) to the status both transports answer with: the HTTP status,
// which is also the wire's error code. A shed batch is 429; an edit of
// a sealed or draining tenant 409; an evicted tenant or an unknown
// segment 404; any other rejected edit and an oversized batch 400; a
// check on a draining tenant, a closed service or a departed client
// 503.
//
//ring:hotpath
func Status(err error, mutation bool) int {
	switch {
	case errors.Is(err, service.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrSealed), mutation && errors.Is(err, ErrDraining):
		return http.StatusConflict
	case errors.Is(err, ErrTenantNotFound), errors.Is(err, ErrUnknownSegment):
		return http.StatusNotFound
	case mutation, errors.Is(err, service.ErrBatchTooLarge):
		return http.StatusBadRequest
	}
	return http.StatusServiceUnavailable
}

// writeError answers a rejected check or mutation with its Status,
// adding Retry-After for a shed batch and for a check on a draining
// tenant, the two transient rejections.
func writeError(w http.ResponseWriter, err error, mutation bool) {
	status := Status(err, mutation)
	if status == http.StatusTooManyRequests || !mutation && errors.Is(err, ErrDraining) {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (h *Handler) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.reg.Status())
}

// loadRequest is the JSON body of POST /v1/images.
type loadRequest struct {
	Name string `json:"name"`
	// Segments carries the image inline; File names an image JSON file
	// inside the daemon's image directory. Exactly one must be set.
	Segments []ImageSegment `json:"segments,omitempty"`
	File     string         `json:"file,omitempty"`
	// Sizing overrides; zero fields take the registry defaults.
	Workers int `json:"workers,omitempty"`
	Queue   int `json:"queue,omitempty"`
	Batch   int `json:"batch,omitempty"`
	Shards  int `json:"shards,omitempty"`
}

type loadResponse struct {
	OK       bool   `json:"ok"`
	Name     string `json:"name"`
	State    string `json:"state"`
	Segments int    `json:"segments"`
	Workers  int    `json:"workers"`
}

// imageFilePath resolves a "file" load against the configured image
// directory, rejecting escapes.
func (h *Handler) imageFilePath(name string) (string, error) {
	if h.imageDir == "" {
		return "", fmt.Errorf("file loads are disabled (no image directory configured)")
	}
	path := filepath.Join(h.imageDir, filepath.Clean("/"+name))
	rel, err := filepath.Rel(h.imageDir, path)
	if err != nil || rel == ".." || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator) {
		return "", fmt.Errorf("image file %q escapes the image directory", name)
	}
	return path, nil
}

func (h *Handler) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !ValidName(req.Name) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad tenant name %q", req.Name)})
		return
	}
	if (len(req.Segments) == 0) == (req.File == "") {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "exactly one of segments or file must be given"})
		return
	}
	var defs []service.Segment
	var err error
	if req.File != "" {
		path, perr := h.imageFilePath(req.File)
		if perr != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: perr.Error()})
			return
		}
		defs, err = LoadImageFile(path)
		if err != nil {
			status := http.StatusBadRequest
			if os.IsNotExist(err) {
				status = http.StatusNotFound
			}
			writeJSON(w, status, errorResponse{Error: err.Error()})
			return
		}
	} else {
		defs, err = Segments(req.Segments)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
	}
	t, err := h.reg.Load(req.Name, defs, TenantConfig{
		Workers: req.Workers, QueueDepth: req.Queue, BatchLimit: req.Batch, Shards: req.Shards,
	})
	switch {
	case errors.Is(err, ErrTenantExists), errors.Is(err, ErrTooManyTenants), errors.Is(err, ErrWorkerBudget):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, loadResponse{
		OK: true, Name: t.Name(), State: t.State().String(),
		Segments: len(t.Store().Segments()), Workers: t.Config().Workers,
	})
}

// detailResponse is GET /v1/images/{name}: the listing row plus the
// tenant's full metrics snapshot.
type detailResponse struct {
	Status  TenantStatus     `json:"status"`
	Metrics service.Snapshot `json:"metrics"`
}

func (h *Handler) handleDetail(w http.ResponseWriter, r *http.Request) {
	t, ok := h.reg.Get(r.PathValue("name"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("%v: %q", ErrTenantNotFound, r.PathValue("name"))})
		return
	}
	writeJSON(w, http.StatusOK, detailResponse{Status: t.Status(), Metrics: t.svc.Snapshot()})
}

type lifecycleResponse struct {
	OK    bool   `json:"ok"`
	Name  string `json:"name"`
	State string `json:"state"`
}

func (h *Handler) handleSeal(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := h.reg.Seal(name); err != nil {
		if errors.Is(err, ErrTenantNotFound) {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, lifecycleResponse{OK: true, Name: name, State: StateSealed.String()})
}

func (h *Handler) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := h.reg.Evict(name); err != nil {
		status := http.StatusConflict
		if errors.Is(err, ErrTenantNotFound) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, lifecycleResponse{OK: true, Name: name, State: StateEvicted.String()})
}

// serve answers one tenant-scoped endpoint from the tenant named name.
func (h *Handler) serve(w http.ResponseWriter, r *http.Request, name, endpoint string) {
	t, ok := h.reg.Get(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("%v: %q", ErrTenantNotFound, name)})
		return
	}
	switch endpoint {
	case "check":
		h.check(w, r, t)
	case "mutate":
		h.mutate(w, r, t)
	case "healthz":
		writeJSON(w, http.StatusOK, service.Health{
			OK:       true,
			Workers:  t.svc.Workers(),
			Segments: len(t.store.Segments()),
			Shards:   t.store.Shards(),
			Version:  t.store.Version(),
		})
	case "metrics":
		// Embedding inlines the service snapshot's keys, so the
		// invalidation-feed counters only add a "leases" object to its
		// document.
		writeJSON(w, http.StatusOK, struct {
			service.Snapshot
			Leases SubscriptionStats `json:"leases"`
		}{t.svc.Snapshot(), t.SubscriptionStats()})
	default:
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown tenant endpoint %q", endpoint)})
	}
}

func (h *Handler) handleTenant(w http.ResponseWriter, r *http.Request) {
	h.serve(w, r, r.PathValue("name"), r.PathValue("endpoint"))
}

// onDefault serves a single-tenant endpoint from the default tenant.
func (h *Handler) onDefault(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h.serve(w, r, DefaultTenant, endpoint)
	}
}

// handleHealthz answers for the default tenant when one is loaded, and
// degrades to a registry-level liveness answer when there is none — a
// fleet daemon with no default image is still alive.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if _, ok := h.reg.Get(DefaultTenant); ok {
		h.serve(w, r, DefaultTenant, "healthz")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK      bool `json:"ok"`
		Tenants int  `json:"tenants"`
	}{OK: true, Tenants: h.reg.Len()})
}

// check answers POST check: a batch of queries decided by the tenant.
func (h *Handler) check(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req service.CheckRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch"})
		return
	}
	queries, err := req.Decode()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ds, err := t.Submit(r.Context(), queries)
	if err != nil {
		writeError(w, err, false)
		return
	}
	writeJSON(w, http.StatusOK, service.CheckResponse{Decisions: ds})
}

// mutateRequest is the JSON body of POST mutate.
type mutateRequest struct {
	// Op is "setbrackets", "revoke" or "restore".
	Op      string `json:"op"`
	Segment string `json:"segment,omitempty"`
	Segno   uint32 `json:"segno,omitempty"`

	// setbrackets fields.
	Read    bool   `json:"read,omitempty"`
	Write   bool   `json:"write,omitempty"`
	Execute bool   `json:"execute,omitempty"`
	R1      uint8  `json:"r1,omitempty"`
	R2      uint8  `json:"r2,omitempty"`
	R3      uint8  `json:"r3,omitempty"`
	Gates   uint32 `json:"gates,omitempty"`
}

type mutateResponse struct {
	OK      bool   `json:"ok"`
	Version uint64 `json:"version"`
}

// mutate answers POST mutate: one supervisor edit through
// Tenant.Mutate.
func (h *Handler) mutate(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req mutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	op, ok := mutOpByName[req.Op]
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown mutation op %q", req.Op)})
		return
	}
	version, err := t.Mutate(Mutation{
		Op: op, Segment: req.Segment, Segno: req.Segno,
		Read: req.Read, Write: req.Write, Execute: req.Execute,
		Brackets: core.Brackets{R1: core.Ring(req.R1), R2: core.Ring(req.R2), R3: core.Ring(req.R3)},
		Gates:    req.Gates,
	})
	if err != nil {
		writeError(w, err, true)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{OK: true, Version: version})
}
