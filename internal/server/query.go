package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"

	"ndss/internal/obs"
	"ndss/internal/search"
	"ndss/internal/wire"
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
		s.recordQuery(r, ep, req, start, nil, err)
		return
	}
	out = outOK
	s.met.recordStats(st)
	// One response serves the cache and the client; the record keeps
	// the backend's stats, so it never pins the match list. A miss
	// serves "matches":[], not null.
	if matches == nil {
		matches = []search.Match{}
	}
	resp := wire.Response{Matches: matches, Stats: *st}
	s.recordQuery(r, ep, req, start, st, nil)
	if s.cache != nil {
		s.cache.put(&cacheEntry{key: key, resp: resp})
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
