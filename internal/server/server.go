// Package server exposes an opened ndss index as an HTTP JSON query
// service: the production layer the paper's deployment story implies
// (memorization audits are sustained query traffic against one index).
//
// Endpoints:
//
//	POST /search         near-duplicate search (search.Options over JSON)
//	POST /search/topk    ranked top-k retrieval: /search at the floor θ
//	                     with Limit n
//	GET|POST /explain    the deferral plan a query would run with (no I/O;
//	                     501 behind a coordinator, where each shard plans
//	                     alone)
//	GET  /healthz        liveness; 503 once shutdown has begun; reports
//	                     the active index build id
//	GET  /metrics        Prometheus text exposition: requests, per-endpoint
//	                     and per-stage latency histograms, cache, index,
//	                     shard and Go runtime series
//	GET  /debug/slowlog  the flight recorder's stage-annotated records of
//	                     the slowest and most recent queries
//	GET  /debug/trace/{request_id}
//	                     one held query's record with its cross-process
//	                     trace tree; /debug/trace/ lists the records that
//	                     carry a retention reason
//	POST /admin/reload   zero-downtime hot swap to a freshly opened
//	                     backend (requires Config.Reloader)
//	POST /ingest         append new texts as a fresh index segment and
//	                     hot-swap so they are searchable on return
//	                     (requires Config.Ingester and Config.Reloader)
//	POST /admin/compact  merge the index's segment set into one segment,
//	                     dropping tombstoned texts, then hot-swap
//	                     (requires Config.Compactor and Config.Reloader)
//
// The server bounds concurrent query work with an admission semaphore
// (saturation → 429), applies a per-request deadline (the `timeout_ms`
// request field, capped by Config.MaxTimeout) whose expiry cancels the
// query at the pipeline's next checkpoint, and serves repeated queries
// from an LRU cache keyed by the request (options and raw tokens): only
// the engine that searches a query sketches it.
//
// Every request carries a request ID (client-supplied X-Request-ID or
// generated), echoed in the response headers and error bodies and
// stamped on the structured access log Config.Logger receives. Every
// query that gets past admission builds one record: it logs one line
// with its full breakdown (WARN "slow query" past
// Config.SlowQueryThreshold, INFO "query" otherwise) and enters the
// bounded flight recorder served at /debug/slowlog and /debug/trace/.
//
// The backend is held behind a reference-counted handle so Reload can
// swap in a rebuilt index with zero failed requests: new queries land
// on the new backend immediately, in-flight queries drain on the old
// one, and only then is the old backend closed and the result cache
// flushed. Shutdown is BeginShutdown, http.Server.Shutdown, then Close,
// which waits for a background compaction and closes the last backend.
package server

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ndss/internal/obs"
	"ndss/internal/shard"
	"ndss/internal/wire"
)

// Backend is the query surface the server serves: shard.Backend, the
// tier's single definition (a shard coordinator is itself one). The
// alias exists only because the benchmark module names server.Backend.
type Backend = shard.Backend

// Config tunes the service. Zero values select the defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (admission
	// semaphore); excess requests get 429. Default 64.
	MaxInFlight int
	// DefaultTimeout applies when a request carries no timeout_ms.
	// Default 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout. Default 60s.
	MaxTimeout time.Duration
	// CacheEntries sizes the result LRU. Default 256; negative disables
	// caching.
	CacheEntries int
	// Reloader opens a fresh backend for Reload / POST /admin/reload.
	// Nil disables hot reload (the endpoint answers 501).
	Reloader func() (Backend, error)
	// Ingester appends new texts to the index as a fresh segment (the
	// POST /ingest mutation) and reports the committed build id. It
	// committed when it returns no error, a build id beside its error,
	// or an error that is an *index.CommitUnconfirmedError (whose
	// BuildID names the build when no id is returned): the texts are in
	// the index then, even if the commit did not finish cleanly
	// (index.Append's contract). Any other error means nothing was
	// committed. It runs with the old backend still serving; the server
	// hot-swaps via Reloader once it returns, so Ingester requires
	// Reloader. Nil disables ingest (501).
	Ingester func(texts [][]uint32) (buildID string, err error)
	// Compactor merges the index's segment set into one segment (the
	// POST /admin/compact mutation), hot-swapped like Ingester under the
	// same commit rule: an *index.CommitUnconfirmedError means the
	// compaction is in place. Nil disables compaction (501).
	Compactor func() error
	// CompactAfter triggers a background compaction after an ingest
	// leaves the index with more than this many segments. Zero disables
	// automatic compaction (manual POST /admin/compact still works).
	CompactAfter int
	// Logger receives the structured access log, one line per query
	// record, and reload events. Nil discards everything.
	Logger *slog.Logger
	// SlowQueryThreshold marks queries at least this slow: their record
	// line logs at WARN as "slow query" instead of INFO "query", and
	// the flight recorder retains them. Zero disables.
	SlowQueryThreshold time.Duration
	// SlowlogEntries sizes each view of the flight recorder: the
	// slowest and the most recent executed queries (/debug/slowlog),
	// and the records retained for a reason (/debug/trace/): slow,
	// errored, partial-result, retried or hedged, and, ranked below
	// those, head-sampled. Retention is decided at completion, not
	// admission. Default 32; negative disables the recorder (both
	// endpoints answer 501).
	SlowlogEntries int
	// TraceSampleRate head-samples queries: a sampled query's
	// traceparent carries the sampling bit, and its record is retained
	// with the reason "sampled", ranked below the tail reasons. Its
	// flight is the one every retained record gets, drawn from the stage
	// times every reply carries. 0 (the default) never head-samples;
	// tail-based retention still keeps the traces that matter. Values
	// are clamped to [0, 1].
	TraceSampleRate float64
}

func (c *Config) setDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.TraceSampleRate < 0 {
		c.TraceSampleRate = 0
	}
	if c.TraceSampleRate > 1 {
		c.TraceSampleRate = 1
	}
}

// discardHandler is the nil Logger: Enabled is false at every level, so
// callers skip building a line at all rather than formatting it into
// io.Discard.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// Server is the HTTP query service. Create with New, serve via any
// http.Server (it implements http.Handler), call BeginShutdown before
// http.Server.Shutdown so health checks fail first and new queries are
// refused while in-flight ones drain, and Close once Shutdown returns.
type Server struct {
	mu     sync.RWMutex   // guards handle swaps
	handle *backendHandle // guarded by mu; current backend + its in-flight refcount

	reloadMu sync.Mutex // serializes Reload calls
	mutateMu sync.Mutex // serializes index mutations (ingest/compact)

	lifeMu      sync.Mutex
	closed      bool          // guarded by lifeMu; set once by Close
	compactDone chan struct{} // guarded by lifeMu; open while a background compaction runs

	cfg     Config
	sem     chan struct{}
	cache   *resultCache // nil when disabled
	met     metrics
	rec     *recorder // nil when disabled
	log     *slog.Logger
	mux     *http.ServeMux
	closing atomic.Bool
}

// backendHandle pairs a backend with the WaitGroup counting requests
// executing against it, so a reload can drain the old backend before
// closing it.
type backendHandle struct {
	b  Backend
	wg sync.WaitGroup
}

// New builds a Server over an opened backend.
func New(b Backend, cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		handle: &backendHandle{b: b},
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxInFlight),
		cache:  newResultCache(cfg.CacheEntries),
		met:    metrics{start: time.Now()},
		rec:    newRecorder(cfg.SlowlogEntries),
		log:    cfg.Logger,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/search/topk", s.handleTopK)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	s.mux.HandleFunc("/debug/trace/", s.handleTrace)
	s.mux.HandleFunc("/admin/reload", s.handleReload)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/admin/compact", s.handleCompact)
	return s
}

// acquire pins the current backend for one request. The returned
// release must be called when the request is done with it; the RLock
// makes the load-and-increment atomic against a concurrent swap.
func (s *Server) acquire() (Backend, func()) {
	s.mu.RLock()
	h := s.handle
	h.wg.Add(1)
	s.mu.RUnlock()
	return h.b, h.wg.Done
}

// ServeHTTP implements http.Handler: it assigns the request its ID,
// echoes it as X-Request-ID, joins or mints the request's trace
// context, and emits one structured access-log line per request once
// the handler returns. A coordinator-forwarded request id lands in
// this access log, so coordinator and shard logs join on it even for
// queries whose trace was never sampled.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := requestIDFor(r)
	w.Header().Set(obs.HeaderRequestID, id)
	ctx := obs.ContextWithRequestID(r.Context(), id)
	// Join the caller's trace when a valid traceparent came in (the
	// coordinator → shard hop); otherwise this process is the serving
	// edge and mints the root, deciding head-sampling here. Tail-based
	// retention is decided at completion, in recordQuery, regardless.
	tc, joined := obs.ParseTraceparent(r.Header.Get(obs.HeaderTraceparent))
	if !joined {
		tc = obs.NewTraceContext(s.sampleTrace())
	}
	ctx = obs.ContextWithTrace(ctx, tc)
	r = r.WithContext(ctx)
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("request_id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("duration", time.Since(start)),
	)
}

// BeginShutdown flips the server into draining mode: /healthz reports
// 503 (load balancers stop routing here) and new query requests are
// refused, while requests already executing run to completion. Pair
// with http.Server.Shutdown, which waits for the in-flight ones, then
// Close.
func (s *Server) BeginShutdown() { s.closing.Store(true) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeResponse writes a 200 query answer through the wire codec: the
// bytes writeJSON would write, without reflection.
func writeResponse(w http.ResponseWriter, resp *wire.Response) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	b, err := wire.AppendResponse(buf.AvailableBuffer(), resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err == nil {
		buf.Write(append(b, '\n'))
		w.Write(buf.Bytes())
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	switch status {
	case http.StatusBadRequest:
		s.met.badInput.Add(1)
	case http.StatusRequestEntityTooLarge:
		s.met.tooLarge.Add(1)
	case http.StatusTooManyRequests:
		s.met.rejected.Add(1)
	case http.StatusServiceUnavailable:
		s.met.refused.Add(1)
	case http.StatusInternalServerError:
		s.met.internals.Add(1)
	}
	writeJSON(w, status, wire.Error{Error: msg, RequestID: obs.RequestIDFromContext(r.Context())})
}

// maxQueryBodyBytes and maxIngestBodyBytes cap request bodies. They are
// package variables only so the over-limit regression tests can shrink
// them to practical sizes.
var (
	maxQueryBodyBytes  int64 = 64 << 20
	maxIngestBodyBytes int64 = 256 << 20
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b, release := s.acquire()
	// The index metadata is additive: shard coordinators discover a
	// remote's K/Seed/T/NumTexts here to validate the shard set and
	// assign text-id bases before the first query.
	meta := b.Meta()
	h := wire.Health{BuildID: b.BuildID(), Index: &meta, Status: "ok"}
	release()
	status := http.StatusOK
	if s.closing.Load() {
		h.Status, status = "shutting_down", http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleSlowlog serves the flight recorder: the slowest and the most
// recent executed queries, each with its stats and stage split;
// /debug/trace/{request_id} draws one's tree.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.rec == nil {
		s.writeError(w, r, http.StatusNotImplemented, "flight recorder disabled")
		return
	}
	slowest, recent := s.rec.views()
	writeJSON(w, http.StatusOK, map[string]any{"slowest": slowest, "recent": recent})
}
