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
//	GET  /metrics        Prometheus text exposition (default) or the JSON
//	                     counters for Accept: application/json: requests,
//	                     per-endpoint and per-stage latency histograms,
//	                     cache hit rate, Go runtime gauges
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
// flushed.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ndss/internal/index"
	"ndss/internal/obs"
	"ndss/internal/search"
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
	// POST /ingest mutation) and reports the committed build id. An
	// error with an empty build id means nothing was committed; an error
	// beside a build id means the texts are in the index but the commit
	// did not finish cleanly (index.Append's contract). It runs with the
	// old backend still serving; the server hot-swaps via Reloader once
	// it returns, so Ingester requires Reloader. Nil disables ingest
	// (501).
	Ingester func(texts [][]uint32) (buildID string, err error)
	// Compactor merges the index's segment set into one segment (the
	// POST /admin/compact mutation), hot-swapped like Ingester. Nil
	// disables compaction (501).
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
	// TraceSampleRate head-samples queries into full distributed
	// tracing: a sampled query's traceparent carries the sampling bit,
	// so every shard leg ships its complete span list back for flight
	// assembly. 0 (the default) never head-samples; tail-based
	// retention still keeps the traces that matter. Values are clamped
	// to [0, 1].
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
// http.Server (it implements http.Handler), and call BeginShutdown
// before http.Server.Shutdown so health checks fail first and new
// queries are refused while in-flight ones drain.
type Server struct {
	mu     sync.RWMutex   // guards handle swaps
	handle *backendHandle // guarded by mu; current backend + its in-flight refcount

	reloadMu sync.Mutex // serializes Reload calls
	mutateMu sync.Mutex // serializes index mutations (ingest/compact)

	compacting atomic.Bool    // single-flight guard for auto-compaction
	compactWG  sync.WaitGroup // tracks the background compaction goroutine

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

// ErrNoReloader is returned by Reload when the server was configured
// without a Reloader.
var ErrNoReloader = errors.New("server: no reloader configured")

// Reload hot-swaps the backend with zero downtime: it opens a fresh
// backend via Config.Reloader, atomically redirects new queries to it,
// waits for queries in flight on the old backend to drain, closes the
// old backend (when it implements io.Closer) and flushes the result
// cache, whose entries belong to the old index. If the reloader fails,
// the old backend keeps serving untouched.
//
// Reloads are serialized; concurrent calls run one at a time.
func (s *Server) Reload() (oldID, newID string, err error) {
	if s.cfg.Reloader == nil {
		return "", "", ErrNoReloader
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	nb, err := s.cfg.Reloader()
	if err != nil {
		s.met.reloadFailures.Add(1)
		s.log.Error("reload failed, keeping previous backend", "error", err)
		return "", "", fmt.Errorf("server: reload backend: %w", err)
	}
	next := &backendHandle{b: nb}
	s.mu.Lock()
	prev := s.handle
	s.handle = next
	s.mu.Unlock()
	// Drain queries still executing against the old backend, then close
	// it. The cache flush comes after the drain so results those last
	// old-index queries insert are flushed too.
	if s.cache != nil {
		// Drop old-index results for new queries right away; a second
		// flush after the drain catches entries the last old-backend
		// queries still insert.
		s.cache.flush()
	}
	prev.wg.Wait()
	if s.cache != nil {
		s.cache.flush()
	}
	if c, ok := prev.b.(io.Closer); ok {
		c.Close()
	}
	s.met.reloads.Add(1)
	s.log.Info("backend reloaded", "old_build_id", prev.b.BuildID(), "build_id", nb.BuildID())
	return prev.b.BuildID(), nb.BuildID(), nil
}

// handleReload is POST /admin/reload.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.closing.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	oldID, newID, err := s.Reload()
	switch {
	case errors.Is(err, ErrNoReloader):
		s.writeError(w, r, http.StatusNotImplemented, ErrNoReloader.Error())
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "reloaded", "old_build_id": oldID, "build_id": newID,
		})
	}
}

// ErrNoIngester is returned by Ingest when the server was configured
// without an Ingester.
var ErrNoIngester = errors.New("server: no ingester configured")

// ErrNoCompactor is returned by Compact when the server was configured
// without a Compactor.
var ErrNoCompactor = errors.New("server: no compactor configured")

// SwapError reports a mutation that committed a new index build on disk
// but did not finish cleanly: the swap to a reloaded backend failed, or
// the commit itself could not confirm its durability. The mutation is
// NOT safe to retry blindly: the texts (or the compaction) are already
// part of the on-disk index under CommittedBuildID, so a re-ingest of
// the same texts would duplicate them. The right recovery is to retry
// the swap alone (POST /admin/reload) and confirm the reported build id
// is serving. Unwrap exposes the underlying failure.
type SwapError struct {
	// Op is the mutation that committed: "ingest" or "compact".
	Op string
	// CommittedBuildID is the build the mutation committed on disk ("" for
	// a compaction that committed cleanly but whose swap failed: its
	// Compactor reports no id then).
	CommittedBuildID string
	// Err is the reload failure that left the old backend serving, or
	// the commit's unconfirmed-durability error (possibly both, joined).
	Err error
}

func (e *SwapError) Error() string {
	if e.CommittedBuildID != "" {
		return fmt.Sprintf("server: %s committed build %s but did not complete (do not re-run the %s; reload instead): %v",
			e.Op, e.CommittedBuildID, e.Op, e.Err)
	}
	return fmt.Sprintf("server: %s committed but backend swap failed (reload instead of re-running): %v", e.Op, e.Err)
}

func (e *SwapError) Unwrap() error { return e.Err }

// Ingest appends texts to the index as a fresh segment and hot-swaps to
// a backend that serves them; on return the texts are searchable. The
// old backend keeps serving throughout — an append only writes new
// files plus a manifest commit, never touching live segments — so
// queries see zero failed requests. Mutations are serialized: a
// concurrent Ingest or Compact waits its turn. An ingest of no texts is
// an error and calls nothing.
func (s *Server) Ingest(texts [][]uint32) (buildID string, err error) {
	if s.cfg.Ingester == nil {
		return "", ErrNoIngester
	}
	if len(texts) == 0 {
		return "", errors.New("server: ingest: no texts")
	}
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()
	committedID, err := s.cfg.Ingester(texts)
	if err != nil && committedID == "" {
		// Nothing committed: the append failed before its manifest
		// rename, so retrying this exact ingest is safe.
		return "", fmt.Errorf("server: ingest: %w", err)
	}
	// The texts are in the on-disk index from here on, even when err says
	// the commit could not confirm its durability: swap them in either
	// way, and report any failure with the committed build id and a typed
	// error so callers don't retry the append (which would duplicate the
	// texts) when a plain reload is what's needed.
	_, newID, reloadErr := s.Reload()
	if err := errors.Join(err, reloadErr); err != nil {
		s.log.Error("ingest committed but did not complete; reload to serve it, do not re-ingest",
			"committed_build_id", committedID, "texts", len(texts), "error", err)
		return committedID, &SwapError{Op: "ingest", CommittedBuildID: committedID, Err: err}
	}
	s.met.ingests.Add(1)
	s.log.Info("ingested texts", "texts", len(texts), "build_id", newID)
	s.maybeAutoCompact()
	return newID, nil
}

// Compact merges the index's segment set into one segment (dropping
// tombstoned texts) and hot-swaps to the compacted backend. Like
// Ingest, the old backend serves until the swap: compaction stages the
// merged segment beside the live files and commits atomically.
func (s *Server) Compact() (buildID string, err error) {
	if s.cfg.Compactor == nil {
		return "", ErrNoCompactor
	}
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()
	return s.compactLocked()
}

func (s *Server) compactLocked() (string, error) {
	var committedID string
	err := s.cfg.Compactor()
	if err != nil {
		// A compaction whose commit landed but could not confirm its
		// durability is live on disk: swap it in like any other.
		var unconfirmed *index.CommitUnconfirmedError
		if !errors.As(err, &unconfirmed) {
			return "", fmt.Errorf("server: compact: %w", err)
		}
		committedID = unconfirmed.BuildID
	}
	_, newID, reloadErr := s.Reload()
	if err := errors.Join(err, reloadErr); err != nil {
		s.log.Error("compaction committed but did not complete; reload to serve it",
			"committed_build_id", committedID, "error", err)
		return committedID, &SwapError{Op: "compact", CommittedBuildID: committedID, Err: err}
	}
	s.met.compactions.Add(1)
	s.log.Info("index compacted", "build_id", newID)
	return newID, nil
}

// maybeAutoCompact starts a background compaction when the active
// backend's segment count exceeds Config.CompactAfter. Single-flight:
// while one background compaction runs, further triggers are no-ops.
// Called with mutateMu held; the goroutine re-acquires it.
func (s *Server) maybeAutoCompact() {
	if s.cfg.CompactAfter <= 0 || s.cfg.Compactor == nil {
		return
	}
	b, release := s.acquire()
	segments := segmentCount(b)
	release()
	if segments <= s.cfg.CompactAfter {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		defer s.compacting.Store(false)
		s.mutateMu.Lock()
		defer s.mutateMu.Unlock()
		if _, err := s.compactLocked(); err != nil {
			s.log.Error("background compaction failed", "error", err)
		}
	}()
}

// segmentCount reports how many segments back the given backend, via
// the optional interface *ndss.DB (and *index.Index) implement.
// Backends without segment awareness count as one segment.
func segmentCount(b Backend) int {
	if sc, ok := b.(interface{ SegmentCount() int }); ok {
		return sc.SegmentCount()
	}
	return 1
}

// ingestRequest is the JSON body of POST /ingest.
type ingestRequest struct {
	Texts [][]uint32 `json:"texts"`
}

// handleIngest is POST /ingest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.closing.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	var req ingestRequest
	// The real ResponseWriter must reach MaxBytesReader: on an over-limit
	// body it sets Connection: close, so the unread bytes cannot desync
	// the next keep-alive request on this connection.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, r, decodeStatus(err), fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(req.Texts) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "empty ingest: texts required")
		return
	}
	for i, txt := range req.Texts {
		if len(txt) == 0 {
			s.writeError(w, r, http.StatusBadRequest, fmt.Sprintf("text %d is empty", i))
			return
		}
	}
	buildID, err := s.Ingest(req.Texts)
	var swapErr *SwapError
	switch {
	case errors.Is(err, ErrNoIngester):
		s.writeError(w, r, http.StatusNotImplemented, ErrNoIngester.Error())
	case errors.As(err, &swapErr):
		s.writeSwapError(w, r, swapErr)
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ingested", "texts": len(req.Texts), "build_id": buildID,
		})
	}
}

// writeSwapError answers a mutation that committed but did not
// complete: the swap or the commit's durability check failed. It tells
// the client exactly that, with the committed build id, so its retry is
// a reload — not a duplicate ingest or a second compaction.
func (s *Server) writeSwapError(w http.ResponseWriter, r *http.Request, swapErr *SwapError) {
	s.met.internals.Add(1)
	writeJSON(w, http.StatusInternalServerError, map[string]any{
		"error":              swapErr.Error(),
		"status":             "committed_swap_failed",
		"committed_build_id": swapErr.CommittedBuildID,
		"request_id":         obs.RequestIDFromContext(r.Context()),
	})
}

// handleCompact is POST /admin/compact.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.closing.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	buildID, err := s.Compact()
	var swapErr *SwapError
	switch {
	case errors.Is(err, ErrNoCompactor):
		s.writeError(w, r, http.StatusNotImplemented, ErrNoCompactor.Error())
	case errors.As(err, &swapErr):
		s.writeSwapError(w, r, swapErr)
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, err.Error())
	default:
		b, release := s.acquire()
		segments := segmentCount(b)
		release()
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "compacted", "build_id": buildID, "segments": segments,
		})
	}
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
// with http.Server.Shutdown, which waits for the in-flight ones.
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

// decodeStatus maps a request-decoding error to its HTTP status: an
// over-limit body is the client sending too much (413), anything else
// is a malformed request (400).
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeRequest parses a query request from a POST JSON body, or — for
// /explain convenience — from URL query parameters on GET. The
// ResponseWriter is handed to MaxBytesReader so an over-limit body
// closes the connection instead of leaving unread bytes to desync
// keep-alive.
func decodeRequest(w http.ResponseWriter, r *http.Request) (wire.Request, error) {
	var req wire.Request
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		theta, err := strconv.ParseFloat(q.Get("theta"), 64)
		if err != nil {
			return req, fmt.Errorf("theta parameter: %w", err)
		}
		req.Theta = theta
		for _, part := range splitTokens(q.Get("tokens")) {
			tok, err := strconv.ParseUint(part, 10, 32)
			if err != nil {
				return req, fmt.Errorf("bad token %q", part)
			}
			req.Tokens = append(req.Tokens, uint32(tok))
		}
		req.PrefixFilter = q.Get("prefix_filter") == "true" || q.Get("prefix_filter") == "1"
		return req, nil
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBodyBytes))
	data := buf.Bytes()
	if err != nil {
		// The body broke off, over the cap or with the connection:
		// decode what arrived as a stream decoder would have, which
		// answers only if a whole value came before the failure.
		dec := json.NewDecoder(io.MultiReader(bytes.NewReader(data), errReader{err}))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	} else {
		err = wire.DecodeRequest(data, &req)
	}
	if err != nil {
		return req, fmt.Errorf("decode request: %w", err)
	}
	return req, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func splitTokens(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' || s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

// admit reserves an execution slot, or reports why it could not. The
// returned release func is non-nil iff admission succeeded.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) func() {
	if s.closing.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, "server is shutting down")
		return nil
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.writeError(w, r, http.StatusTooManyRequests, "server saturated: too many in-flight queries")
		return nil
	}
	s.met.inFlight.Add(1)
	return func() {
		s.met.inFlight.Add(-1)
		<-s.sem
	}
}

// deadline derives the request's execution context.
func (s *Server) deadline(r *http.Request, req wire.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Compared in milliseconds: a huge timeout_ms overflows as a
		// Duration and would expire at once instead of being capped.
		d = s.cfg.MaxTimeout
		if ms := int64(req.TimeoutMS); ms <= s.cfg.MaxTimeout.Milliseconds() {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// decodePost decodes a query POST body, answering a wrong method or a
// bad body itself; ok is false when it did.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request) (req wire.Request, ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return req, false
	}
	req, err := decodeRequest(w, r)
	if err != nil {
		s.writeError(w, r, decodeStatus(err), err.Error())
		return req, false
	}
	return req, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if req, ok := s.decodePost(w, r); ok {
		s.serveQuery(w, r, req, epSearch)
	}
}

// defaultFloorTheta is /search/topk's threshold when the request leaves
// floor_theta zero.
const defaultFloorTheta = 0.5

// handleTopK decodes /search/topk onto the /search query: θ is the
// request's floor_theta (default 0.5) and the Limit is n, which must be
// positive.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodePost(w, r)
	if !ok {
		return
	}
	if req.N <= 0 {
		s.writeError(w, r, http.StatusBadRequest, "n must be positive")
		return
	}
	req.Theta = req.FloorTheta
	if req.Theta == 0 {
		req.Theta = defaultFloorTheta
	}
	s.serveQuery(w, r, req, epTopK)
}

// serveQuery is the shared execution path of /search and /search/topk:
// validate → cache probe → admission → deadline → query → respond. ep
// labels the request's metrics and records.
//
// Latency accounting invariant: every admitted request — one that was
// served from cache or acquired an execution slot — records exactly one
// latency observation, tagged with its endpoint and outcome. Requests
// turned away before admission (malformed, saturated, shutting down)
// record none. TestLatencyAccounting pins this down.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, req wire.Request, ep endpoint) {
	start := time.Now()
	if s.closing.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if len(req.Tokens) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "empty query: tokens required")
		return
	}
	opts := req.Options()
	// The server always collects detailed spans: the flight recorder
	// and slow-query log need them, and the copy is one small
	// allocation per executed query.
	opts.Trace = true
	if opts.Theta <= 0 || opts.Theta > 1 {
		s.writeError(w, r, http.StatusBadRequest, fmt.Sprintf("theta must be in (0, 1], got %v", opts.Theta))
		return
	}
	key := cacheKey(req.Tokens, opts)
	if s.cache != nil {
		if e, ok := s.cache.get(key); ok {
			resp := e.resp
			resp.Cached = true
			writeResponse(w, &resp)
			s.met.observe(ep, outCached, time.Since(start))
			return
		}
	}

	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	if s.cache != nil {
		s.met.cacheMisses.Add(1)
	}

	// From here the request is admitted: exactly one observation fires
	// whichever path the query takes.
	out := outInternal
	defer func() { s.met.observe(ep, out, time.Since(start)) }()

	ctx, cancel := s.deadline(r, req)
	defer cancel()

	// Pin the backend for the whole query: a reload that swaps mid-way
	// waits for it, so its result enters the cache before the flush.
	backend, releaseBackend := s.acquire()
	defer releaseBackend()
	var (
		matches []search.Match
		st      *search.Stats
		err     error
	)
	// The pprof labels join CPU profiles to the access log and the
	// flight recorder: samples taken while this query executes carry its
	// request id and endpoint.
	pprof.Do(ctx, pprof.Labels("request_id", obs.RequestIDFromContext(ctx), "endpoint", ep.String()), func(ctx context.Context) {
		matches, st, err = backend.SearchContext(ctx, req.Tokens, opts)
	})
	if err != nil {
		out = s.writeQueryError(w, r, err)
		s.recordQuery(r, ep, req, start, nil, nil, err)
		return
	}
	out = outOK
	s.met.recordStats(st)
	// One response serves the cache and the client. Its stats carry no
	// span list, so a cached entry never pins one; the record keeps its
	// own copy of those stats, so it never pins the match list nor holds
	// its spans twice. A miss serves "matches":[], not null.
	if matches == nil {
		matches = []search.Match{}
	}
	resp := wire.Response{Matches: matches, Stats: *st}
	resp.Stats.Spans = nil
	rs := resp.Stats
	s.recordQuery(r, ep, req, start, &rs, st.Spans, nil)
	if s.cache != nil {
		s.cache.put(&cacheEntry{key: key, resp: resp})
	}
	// Span shipping is gated on the sampling bit: a sampled query's
	// response carries this process's full span list so the caller (a
	// coordinator, or a person with curl) can assemble the flight.
	if tc, ok := obs.TraceFromContext(r.Context()); ok && tc.Sampled {
		resp.Stats.Spans = st.Spans
	}
	writeResponse(w, &resp)
}

// writeQueryError answers a failed backend call and reports the outcome
// to account it under: 400 only for a search.ValidationError.
func (s *Server) writeQueryError(w http.ResponseWriter, r *http.Request, err error) outcome {
	var invalid search.ValidationError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, r, http.StatusGatewayTimeout, "deadline exceeded")
		return outTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; nobody reads the response, but the
		// outcome accounts for it.
		w.WriteHeader(499) // client closed request (nginx convention)
		return outCanceled
	case errors.As(err, &invalid):
		s.writeError(w, r, http.StatusBadRequest, err.Error())
		return outBadRequest
	default:
		s.writeError(w, r, http.StatusInternalServerError, err.Error())
		return outInternal
	}
}

// planner is the optional interface /explain answers through: an engine
// that plans its own queries (*ndss.DB). A coordinator is none, because
// each shard plans on its own lists and segments.
type planner interface {
	Explain(ctx context.Context, query []uint32, opts search.Options) (*search.Plan, error)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, r, http.StatusMethodNotAllowed, "GET or POST required")
		return
	}
	req, err := decodeRequest(w, r)
	if err != nil {
		s.writeError(w, r, decodeStatus(err), err.Error())
		return
	}
	if len(req.Tokens) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "empty query: tokens required")
		return
	}
	start := time.Now()
	backend, releaseBackend := s.acquire()
	defer releaseBackend()
	p, ok := backend.(planner)
	if !ok {
		s.writeError(w, r, http.StatusNotImplemented, "each shard plans alone; ask a shard's /explain")
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	out := outInternal
	defer func() { s.met.observe(epExplain, out, time.Since(start)) }()
	ctx, cancel := s.deadline(r, req)
	defer cancel()
	plan, err := p.Explain(ctx, req.Tokens, req.Options())
	if err != nil {
		out = s.writeQueryError(w, r, err)
		return
	}
	out = outOK
	writeJSON(w, http.StatusOK, plan)
}

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
// recent executed queries, each with its stage-annotated trace.
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
