package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"ndss/internal/index"
	"ndss/internal/obs"
)

// ErrNoReloader, ErrNoIngester and ErrNoCompactor are returned by
// Reload, Ingest and Compact when the server was configured without the
// matching Config function, and ErrClosed once Close has run.
var (
	ErrNoReloader  = errors.New("server: no reloader configured")
	ErrNoIngester  = errors.New("server: no ingester configured")
	ErrNoCompactor = errors.New("server: no compactor configured")
	ErrClosed      = errors.New("server: closed")
)

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
	if s.isClosed() {
		return "", "", ErrClosed
	}
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
	if s.isClosed() {
		return "", ErrClosed
	}
	buildID, err = s.commitAndSwap("ingest", &s.met.ingests, func() (string, error) { return s.cfg.Ingester(texts) })
	if err == nil {
		s.maybeAutoCompact()
	}
	return buildID, err
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
	if s.isClosed() {
		return "", ErrClosed
	}
	return s.commitAndSwap("compact", &s.met.compactions, func() (string, error) { return "", s.cfg.Compactor() })
}

// commitAndSwap runs one index mutation and swaps its result in; the
// caller holds mutateMu. The mutation committed when it returned no
// error, a build id, or an *index.CommitUnconfirmedError (the commit
// landed but its durability is unconfirmed); the committed id is the
// returned one, else that error's. Nothing committed is a plain error,
// safe to retry. Once committed, the build is swapped in either way:
// success counts in done and returns the new build id, and any failure
// — the mutation's error, the reload's, or both — is a *SwapError with
// the committed id, so callers reload instead of re-running the
// mutation (a re-ingest would duplicate its texts).
func (s *Server) commitAndSwap(op string, done *atomic.Int64, mutate func() (string, error)) (string, error) {
	committedID, err := mutate()
	var unconfirmed *index.CommitUnconfirmedError
	if err != nil && committedID == "" {
		if !errors.As(err, &unconfirmed) {
			return "", fmt.Errorf("server: %s: %w", op, err)
		}
		committedID = unconfirmed.BuildID
	}
	_, newID, reloadErr := s.Reload()
	if err := errors.Join(err, reloadErr); err != nil {
		s.log.Error("index mutation committed but did not complete; reload to serve it, do not re-run it",
			"op", op, "committed_build_id", committedID, "error", err)
		return committedID, &SwapError{Op: op, CommittedBuildID: committedID, Err: err}
	}
	done.Add(1)
	s.log.Info("index mutation committed and serving", "op", op, "build_id", newID)
	return newID, nil
}

// maybeAutoCompact starts a background compaction when the active
// backend's segment count exceeds Config.CompactAfter. Single-flight:
// while one background compaction runs, further triggers are no-ops,
// and after Close none starts. Called with mutateMu held; the
// goroutine's Compact re-acquires it.
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
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closed || s.compactDone != nil {
		return
	}
	done := make(chan struct{})
	s.compactDone = done
	go func() {
		defer close(done)
		if _, err := s.Compact(); err != nil {
			s.log.Error("background compaction failed", "error", err)
		}
		s.lifeMu.Lock()
		s.compactDone = nil
		s.lifeMu.Unlock()
	}()
}

func (s *Server) isClosed() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	return s.closed
}

// Close ends the server for good once http.Server.Shutdown has drained
// its requests. It begins the shutdown, refuses every later Reload,
// Ingest and Compact (ErrClosed), waits for a running background
// compaction until ctx ends, then drains the serving backend and closes
// it when it is an io.Closer. Each backend is closed once: Reload closes
// the ones it replaces, Close the last, and a second Close nothing.
// Requests that still arrive get 503, as after BeginShutdown. An error
// names a compaction ctx abandoned, or the backend's Close failure.
func (s *Server) Close(ctx context.Context) error {
	s.BeginShutdown()
	s.lifeMu.Lock()
	if s.closed {
		s.lifeMu.Unlock()
		return nil
	}
	s.closed = true
	compacting := s.compactDone
	s.lifeMu.Unlock()

	var err error
	if compacting != nil {
		select {
		case <-compacting:
		case <-ctx.Done():
			err = fmt.Errorf("server: close: abandoned the running background compaction: %w", ctx.Err())
		}
	}
	// Once a Reload in progress has swapped, no other can: the handle
	// is final. Later requests pin a fresh handle on the same backend,
	// so the drain waits only for what was in flight.
	s.reloadMu.Lock()
	s.mu.Lock()
	h := s.handle
	s.handle = &backendHandle{b: h.b}
	s.mu.Unlock()
	s.reloadMu.Unlock()
	h.wg.Wait()
	if c, ok := h.b.(io.Closer); ok {
		err = errors.Join(err, c.Close())
	}
	return err
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

// mutationAllowed answers a mutation request that is not a POST (405)
// or that arrives while the server drains (503); ok is false when it
// did.
func (s *Server) mutationAllowed(w http.ResponseWriter, r *http.Request) (ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if s.closing.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, "server is shutting down")
		return false
	}
	return true
}

// writeMutation answers a mutation with err's outcome, or with 200 and
// the body ok builds when err is nil. A SwapError answers 500
// committed_swap_failed with the committed build id, so the client's
// retry is a reload, not a duplicate ingest or a second compaction. It
// is tested before the 501 sentinels: an Ingester without a Reloader
// commits and then fails its swap with a wrapped ErrNoReloader.
func (s *Server) writeMutation(w http.ResponseWriter, r *http.Request, err error, ok func() any) {
	var swapErr *SwapError
	switch {
	case errors.As(err, &swapErr):
		s.met.internals.Add(1)
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":              swapErr.Error(),
			"status":             "committed_swap_failed",
			"committed_build_id": swapErr.CommittedBuildID,
			"request_id":         obs.RequestIDFromContext(r.Context()),
		})
	case errors.Is(err, ErrNoReloader), errors.Is(err, ErrNoIngester), errors.Is(err, ErrNoCompactor):
		s.writeError(w, r, http.StatusNotImplemented, err.Error())
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, ok())
	}
}

// handleReload is POST /admin/reload.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !s.mutationAllowed(w, r) {
		return
	}
	oldID, newID, err := s.Reload()
	s.writeMutation(w, r, err, func() any {
		return map[string]string{"status": "reloaded", "old_build_id": oldID, "build_id": newID}
	})
}

// ingestRequest is the JSON body of POST /ingest.
type ingestRequest struct {
	Texts [][]uint32 `json:"texts"`
}

// handleIngest is POST /ingest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.mutationAllowed(w, r) {
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
	s.writeMutation(w, r, err, func() any {
		return map[string]any{"status": "ingested", "texts": len(req.Texts), "build_id": buildID}
	})
}

// handleCompact is POST /admin/compact.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if !s.mutationAllowed(w, r) {
		return
	}
	buildID, err := s.Compact()
	s.writeMutation(w, r, err, func() any {
		b, release := s.acquire()
		defer release()
		return map[string]any{"status": "compacted", "build_id": buildID, "segments": segmentCount(b)}
	})
}
