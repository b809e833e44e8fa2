package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndss/internal/index"
	"ndss/internal/obs"
	"ndss/internal/search"
	"ndss/internal/wire"
)

// DefaultMaxInFlight is the per-shard admission cap when HTTPOptions
// leaves MaxInFlight zero. Legs beyond the cap queue until a slot frees
// or the leg's budget expires, so a saturated shard degrades into
// flagged partial results instead of connection pile-ups.
const DefaultMaxInFlight = 64

// maxResponseBytes bounds how much of a shard response the client will
// read (matches the server's own request-body cap).
const maxResponseBytes = 256 << 20

// maxErrorBodyBytes bounds how much of a non-200 response body the
// client will read for the error message: a misbehaving remote must
// not balloon coordinator memory just because it is failing.
const maxErrorBodyBytes = 1 << 20

// DefaultProbeTimeout bounds NewHTTPShard's initial /healthz probe
// when the caller's context has no deadline of its own, so startup
// against a black-holed shard URL fails fast instead of hanging.
const DefaultProbeTimeout = 10 * time.Second

// HTTPOptions configures an HTTPShard.
type HTTPOptions struct {
	// Client issues the requests. Nil selects a client with a cloned
	// default transport sized for fan-out (keep-alive per shard).
	Client *http.Client
	// MaxInFlight caps concurrent requests to this shard; zero selects
	// DefaultMaxInFlight, negative disables admission.
	MaxInFlight int
}

// HTTPShard is a remote shard: an ndss-serve instance spoken to over
// the existing /search, /search/topk, /explain and /healthz contract.
// The remote owns its index lifecycle — it hot-reloads behind its own
// refcounted handle — and this client just re-checks /healthz for the
// current build id.
type HTTPShard struct {
	base string
	hc   *http.Client
	sem  chan struct{}

	mu      sync.RWMutex
	meta    index.Meta // guarded by mu
	buildID string     // guarded by mu

	ioBytes  atomic.Int64
	ioTimeNS atomic.Int64
}

// RemoteError is a non-200 answer from a remote shard.
type RemoteError struct {
	Shard  string
	Status int
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("shard %s: http %d: %s", e.Shard, e.Status, e.Msg)
}

// Unwrap exposes a remote 400 as the search.ValidationError it carried,
// so the query stays the client's mistake through a coordinator.
func (e *RemoteError) Unwrap() error {
	if e.Status == http.StatusBadRequest {
		return search.ValidationError(e.Msg)
	}
	return nil
}

// Transient reports whether another replica may answer: a backend
// failure (500), saturation, drain or deadline, not a bad request.
func (e *RemoteError) Transient() bool {
	switch e.Status {
	case http.StatusInternalServerError, http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// NewHTTPShard connects to the ndss-serve instance at baseURL, performs
// an initial health check, and learns the shard's index metadata from
// /healthz. The remote must be a current ndss-serve: coordinators need
// K/Seed/T/NumTexts up front to validate the shard set and assign
// text-id bases, so a /healthz without index metadata is an error.
func NewHTTPShard(ctx context.Context, baseURL string, opts HTTPOptions) (*HTTPShard, error) {
	h := NewHTTPShardDeferred(baseURL, opts)
	// The initial probe is always bounded: a caller handing us a
	// deadline-free context (ndss-serve startup does) must not hang
	// forever on a black-holed shard URL.
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultProbeTimeout)
		defer cancel()
	}
	if err := h.CheckHealth(ctx); err != nil {
		return nil, err
	}
	if h.Meta().K == 0 {
		return nil, fmt.Errorf("shard %s: /healthz reports no index metadata (remote ndss-serve too old for sharded serving)", h.base)
	}
	return h, nil
}

// NewHTTPShardDeferred creates an HTTPShard without the initial health
// probe: no metadata, no build id, no network touched. It exists for
// replica groups, where a replica that is down at boot should come up
// quarantined and join once a health probe reaches it — a plain
// coordinator shard cannot defer, because text-id bases need NumTexts
// up front.
func NewHTTPShardDeferred(baseURL string, opts HTTPOptions) *HTTPShard {
	hc := opts.Client
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = DefaultMaxInFlight
		hc = &http.Client{Transport: tr}
	}
	inflight := opts.MaxInFlight
	if inflight == 0 {
		inflight = DefaultMaxInFlight
	}
	h := &HTTPShard{base: strings.TrimRight(baseURL, "/"), hc: hc}
	if inflight > 0 {
		h.sem = make(chan struct{}, inflight)
	}
	return h
}

// Name returns the shard's base URL.
func (h *HTTPShard) Name() string { return h.base }

// Meta returns the index metadata learned from the shard's /healthz.
func (h *HTTPShard) Meta() index.Meta {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.meta
}

// BuildID returns the remote's build id as of the last successful
// health check or query.
func (h *HTTPShard) BuildID() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.buildID
}

// IOStats reports the cumulative index I/O this client's queries caused
// on the remote, as accounted by the remote's per-query stats.
func (h *HTTPShard) IOStats() index.IOStats {
	return index.IOStats{
		BytesRead: h.ioBytes.Load(),
		ReadTime:  time.Duration(h.ioTimeNS.Load()),
	}
}

// Close releases idle connections. The remote server is not touched.
func (h *HTTPShard) Close() error {
	h.hc.CloseIdleConnections()
	return nil
}

// CheckHealth performs GET /healthz, refreshing the cached build id and
// index metadata on success. A shard that is shutting down (503) or
// unreachable reports an error.
func (h *HTTPShard) CheckHealth(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("shard %s: %w", h.base, err)
	}
	setPropagationHeaders(ctx, req.Header)
	resp, err := h.hc.Do(req)
	if err != nil {
		return fmt.Errorf("shard %s: health: %w", h.base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("shard %s: health: %w", h.base, err)
	}
	var hz wire.Health
	if err := json.Unmarshal(body, &hz); err != nil {
		return fmt.Errorf("shard %s: health: bad body: %w", h.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return &RemoteError{Shard: h.base, Status: resp.StatusCode, Msg: hz.Status}
	}
	h.mu.Lock()
	h.buildID = hz.BuildID
	if hz.Index != nil {
		h.meta = *hz.Index
	}
	h.mu.Unlock()
	return nil
}

// SearchContext runs the query on the remote shard. The context
// deadline is forwarded as the request's timeout_ms so the remote
// enforces the same budget server-side.
func (h *HTTPShard) SearchContext(ctx context.Context, query []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	return h.query(ctx, "/search", wire.NewRequest(query, opts))
}

// SearchTopKContext runs the top-k query on the remote shard.
func (h *HTTPShard) SearchTopKContext(ctx context.Context, query []uint32, opts search.TopKOptions) ([]search.Match, *search.Stats, error) {
	req := wire.NewRequest(query, opts.Search)
	req.N = opts.N
	req.FloorTheta = opts.FloorTheta
	return h.query(ctx, "/search/topk", req)
}

// Explain fetches the deferral plan the remote would run the query
// with.
func (h *HTTPShard) Explain(ctx context.Context, query []uint32, opts search.Options) (*search.Plan, error) {
	release, err := h.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	var plan wire.Plan
	if err := h.post(ctx, "/explain", wire.NewRequest(query, opts), &plan); err != nil {
		return nil, err
	}
	return plan.SearchPlan(), nil
}

// acquire takes a per-shard admission slot, waiting until one frees or
// the context expires. The returned release must be called once.
func (h *HTTPShard) acquire(ctx context.Context) (func(), error) {
	if h.sem == nil {
		return func() {}, nil
	}
	select {
	case h.sem <- struct{}{}:
		return func() { <-h.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (h *HTTPShard) query(ctx context.Context, path string, req wire.Request) ([]search.Match, *search.Stats, error) {
	release, err := h.acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, nil, context.DeadlineExceeded
		}
		req.TimeoutMS = int(rem / time.Millisecond)
		if req.TimeoutMS == 0 {
			req.TimeoutMS = 1
		}
	}
	var resp wire.Response
	if err := h.post(ctx, path, req, &resp); err != nil {
		return nil, nil, err
	}
	matches, st := resp.Result()
	h.ioBytes.Add(st.IOBytes)
	h.ioTimeNS.Add(int64(st.IOTime))
	return matches, st, nil
}

// setPropagationHeaders forwards the request id and trace context on
// an outbound shard call, when the context carries them. The trace
// context in ctx is the per-attempt child, so everything the remote
// records hangs off exactly this attempt's span id.
func setPropagationHeaders(ctx context.Context, hdr http.Header) {
	if id := obs.RequestIDFromContext(ctx); id != "" {
		hdr.Set(obs.HeaderRequestID, id)
	}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		hdr.Set(obs.HeaderTraceparent, tc.Traceparent())
	}
}

// post issues one JSON POST and decodes the 200 response into out. A
// non-200 answer becomes a *RemoteError carrying the remote's error
// string.
func (h *HTTPShard) post(ctx context.Context, path string, body any, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("shard %s: %w", h.base, err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("shard %s: %w", h.base, err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	setPropagationHeaders(ctx, httpReq.Header)
	resp, err := h.hc.Do(httpReq)
	if err != nil {
		// Surface the caller's own cancellation/deadline unwrapped so
		// the coordinator can classify it.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("shard %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Error bodies get a much tighter read cap than results: a
		// failing remote spewing garbage must not occupy result-sized
		// buffers on the coordinator.
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
		var we wire.Error
		_ = json.Unmarshal(data, &we) // best effort; fall back to raw body
		msg := we.Error
		if msg == "" {
			msg = strings.TrimSpace(string(data))
		}
		return &RemoteError{Shard: h.base, Status: resp.StatusCode, Msg: msg}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("shard %s: read response: %w", h.base, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("shard %s: bad response: %w", h.base, err)
	}
	return nil
}
