package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
	"ndss/internal/wire"
)

// latencyCells flattens the (endpoint, outcome) histogram matrix into
// the nonzero cells plus the total number of observations.
func latencyCells(m *metrics) (cells map[string]int64, total int64) {
	cells = map[string]int64{}
	for e := endpoint(0); e < numEndpoints; e++ {
		for o := outcome(0); o < numOutcomes; o++ {
			c := m.latency[e][o].Load().Count
			if c > 0 {
				cells[e.String()+"/"+o.String()] = c
			}
			total += c
		}
	}
	return cells, total
}

// checkCells pins srv's latency cells to want once ts's /metrics counts
// as many requests as want holds.
func checkCells(t *testing.T, ts *httptest.Server, srv *Server, want map[string]int64) {
	t.Helper()
	var wantTotal int64
	for _, v := range want {
		wantTotal += v
	}
	awaitRequests(t, ts, wantTotal)
	cells, total := latencyCells(&srv.met)
	for k, v := range want {
		if cells[k] != v {
			t.Errorf("latency cell %s = %d, want %d (all: %v)", k, cells[k], v, cells)
		}
	}
	if total != wantTotal {
		t.Errorf("total latency observations = %d, want %d (cells: %v)", total, wantTotal, cells)
	}
}

// checkCounters pins the request counters of ts's /metrics — every
// entry zero unless named in want — and the cache hit/miss counters.
// "total", an endpoint and an outcome name sums of ndss_requests_total;
// the other entries name the ndss_requests_<entry>_total counters.
func checkCounters(t *testing.T, ts *httptest.Server, want map[string]int64, hits, misses int64) {
	t.Helper()
	samples := scrapeMetrics(t, ts)
	got := map[string]int64{"total": sumSamples(samples, "ndss_requests_total", nil)}
	for _, ep := range endpointNames {
		got[ep] = sumSamples(samples, "ndss_requests_total", map[string]string{"endpoint": ep})
	}
	for _, out := range []string{"timeout", "canceled"} {
		got[out] = sumSamples(samples, "ndss_requests_total", map[string]string{"outcome": out})
	}
	for _, c := range []string{"rejected", "refused", "bad_request", "too_large", "internal_error"} {
		got[c] = sumSamples(samples, "ndss_requests_"+c+"_total", nil)
	}
	full := map[string]int64{}
	for k := range got {
		full[k] = want[k]
	}
	if !reflect.DeepEqual(got, full) {
		t.Errorf("request counters = %v, want %v", got, full)
	}
	gotHits, gotMisses := sumSamples(samples, "ndss_cache_hits_total", nil), sumSamples(samples, "ndss_cache_misses_total", nil)
	if gotHits != hits || gotMisses != misses {
		t.Errorf("cache hits/misses = %d/%d, want %d/%d", gotHits, gotMisses, hits, misses)
	}
}

// failReader makes every posting-list read fail, driving the
// post-admission error path.
type failReader struct {
	search.IndexReader
}

func (r failReader) ReadRowsInto(dst []index.Posting, rows *index.Rows, fn int, lo, hi uint32, sink *index.IOStats) ([]index.Posting, error) {
	return nil, errors.New("simulated read failure")
}

func wrappedFixture(t *testing.T, wrap func(search.IndexReader) search.IndexReader) (Backend, []uint32) {
	t.Helper()
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 30, MinLength: 40, MaxLength: 90, VocabSize: 30,
		ZipfS: 1.3, Seed: 9, DupRate: 0.5, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	dir := t.TempDir()
	if _, err := index.Build(c, dir, index.BuildOptions{K: 8, Seed: 5, T: 5}); err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return searcherBackend{Searcher: search.New(wrap(ix), c), ix: ix}, c.Text(0)[:12]
}

// TestLatencyAccounting is the satellite regression test: every
// admitted request records exactly one latency observation tagged with
// its endpoint and outcome; requests turned away before admission
// (malformed, wrong method, saturated) record none.
func TestLatencyAccounting(t *testing.T) {
	t.Run("ok_cached_topk_explain", func(t *testing.T) {
		_, engine, q := testFixture(t)
		srv := New(engine, Config{})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		post := func(path string, req wire.Request, wantStatus int) {
			t.Helper()
			resp, body := postJSON(t, ts.Client(), ts.URL+path, req)
			if resp.StatusCode != wantStatus {
				t.Fatalf("%s: status %d, want %d (%s)", path, resp.StatusCode, wantStatus, body)
			}
		}
		post("/search", wire.Request{Tokens: q, Theta: 0.5}, http.StatusOK)
		post("/search", wire.Request{Tokens: q, Theta: 0.5}, http.StatusOK) // cache hit
		post("/search/topk", wire.Request{Tokens: q, N: 3}, http.StatusOK)
		post("/explain", wire.Request{Tokens: q, Theta: 0.5}, http.StatusOK)

		// None of these are admitted, so none may observe latency.
		post("/search", wire.Request{Theta: 0.5}, http.StatusBadRequest)            // no tokens
		post("/search", wire.Request{Tokens: q, Theta: 1.5}, http.StatusBadRequest) // bad theta
		post("/search/topk", wire.Request{Tokens: q}, http.StatusBadRequest)        // missing n
		if resp, err := ts.Client().Get(ts.URL + "/search"); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("GET /search: %d", resp.StatusCode)
			}
		}

		checkCells(t, ts, srv, map[string]int64{
			"search/ok": 1, "search/cached": 1, "topk/ok": 1, "explain/ok": 1,
		})
		checkCounters(t, ts, map[string]int64{
			"total": 4, "search": 2, "topk": 1, "explain": 1, "bad_request": 3,
		}, 1, 2)
	})

	t.Run("timeout", func(t *testing.T) {
		backend, q := slowFixture(t, 40*time.Millisecond)
		srv := New(backend, Config{CacheEntries: -1})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		resp, _ := postJSON(t, ts.Client(), ts.URL+"/search",
			wire.Request{Tokens: q, Theta: 0.5, TimeoutMS: 30})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", resp.StatusCode)
		}
		checkCells(t, ts, srv, map[string]int64{"search/timeout": 1})
		checkCounters(t, ts, map[string]int64{"total": 1, "search": 1, "timeout": 1}, 0, 0)
	})

	t.Run("backend_error", func(t *testing.T) {
		backend, q := wrappedFixture(t, func(ix search.IndexReader) search.IndexReader {
			return failReader{IndexReader: ix}
		})
		srv := New(backend, Config{CacheEntries: -1})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		resp, _ := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", resp.StatusCode)
		}
		checkCells(t, ts, srv, map[string]int64{"search/internal": 1})
		checkCounters(t, ts, map[string]int64{"total": 1, "search": 1, "internal_error": 1}, 0, 0)
	})

	t.Run("saturated_not_observed", func(t *testing.T) {
		br, backend, q := blockingFixture(t)
		srv := New(backend, Config{MaxInFlight: 1, CacheEntries: -1})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("blocked search finished with %d", resp.StatusCode)
			}
		}()
		<-br.entered
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.9})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated status %d, want 429", resp.StatusCode)
		}
		close(br.gate)
		<-done

		checkCells(t, ts, srv, map[string]int64{"search/ok": 1})
		checkCounters(t, ts, map[string]int64{"total": 1, "search": 1, "rejected": 1}, 0, 0)
	})
}

// slowlogResponse mirrors the /debug/slowlog body.
type slowlogResponse struct {
	Slowest []queryRecord `json:"slowest"`
	Recent  []queryRecord `json:"recent"`
}

func getSlowlog(t *testing.T, ts *httptest.Server) slowlogResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slowlog status %d", resp.StatusCode)
	}
	var sl slowlogResponse
	if err := json.NewDecoder(resp.Body).Decode(&sl); err != nil {
		t.Fatal(err)
	}
	return sl
}

// TestSlowlogFlightRecorder is the acceptance check: after a test
// workload, /debug/slowlog returns records carrying their stage split.
func TestSlowlogFlightRecorder(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, theta := range []float64{0.4, 0.5, 0.6} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/search",
			wire.Request{Tokens: q, Theta: theta, PrefixFilter: true, Verify: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search theta=%v: %d (%s)", theta, resp.StatusCode, body)
		}
	}
	// A cache hit does not execute the pipeline and must not add a trace.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/search",
		wire.Request{Tokens: q, Theta: 0.5, PrefixFilter: true, Verify: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("repeat search failed")
	}

	sl := getSlowlog(t, ts)
	if len(sl.Slowest) != 3 || len(sl.Recent) != 3 {
		t.Fatalf("slowlog sizes: slowest=%d recent=%d, want 3 and 3", len(sl.Slowest), len(sl.Recent))
	}
	if !sort.SliceIsSorted(sl.Slowest, func(i, j int) bool {
		return sl.Slowest[i].DurationNS > sl.Slowest[j].DurationNS
	}) {
		t.Error("slowest view not sorted by descending duration")
	}
	for i, e := range sl.Slowest {
		if e.RequestID == "" || e.Endpoint != "search" || e.DurationNS <= 0 || e.NumTokens != len(q) {
			t.Errorf("entry %d malformed: %+v", i, e)
		}
		if e.Stats == nil {
			t.Fatalf("entry %d has no stats", i)
		}
		if e.Stats.StageTimes.Sketch <= 0 || e.Stats.StageTimes.Gather <= 0 {
			t.Errorf("entry %d stage times not populated: %+v", i, e.Stats.StageTimes)
		}
	}
}

func TestSlowlogDisabled(t *testing.T) {
	_, engine, _ := testFixture(t)
	srv := New(engine, Config{SlowlogEntries: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("disabled slowlog status %d, want 501", resp.StatusCode)
	}
}

// TestSlowlogViews pins the semantics of the recorder's two views of
// executed queries: min-replacement for the slowest view, ring
// overwrite for the recent view.
func TestSlowlogViews(t *testing.T) {
	l := newRecorder(2)
	for _, d := range []int64{10, 5, 20, 1, 30} {
		l.add(queryRecord{RequestID: "r", DurationNS: d})
	}
	slowest, recent := l.views()
	if len(slowest) != 2 || slowest[0].DurationNS != 30 || slowest[1].DurationNS != 20 {
		t.Errorf("slowest = %+v, want [30 20]", slowest)
	}
	if len(recent) != 2 || recent[0].DurationNS != 30 || recent[1].DurationNS != 1 {
		t.Errorf("recent = %+v, want [30 1] newest-first", recent)
	}
}

// TestRequestID covers generation, echo, client pass-through,
// sanitization, and attachment to error bodies.
func TestRequestID(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Error("no generated X-Request-ID on response")
	}

	do := func(clientID string, req wire.Request) (*http.Response, wire.Error) {
		t.Helper()
		data, _ := json.Marshal(req)
		hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/search", bytes.NewReader(data))
		if clientID != "" {
			hr.Header.Set("X-Request-ID", clientID)
		}
		resp, err := ts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er wire.Error
		json.NewDecoder(resp.Body).Decode(&er)
		return resp, er
	}

	// A sane client id is honored and attached to the error body.
	resp, er := do("client-id-42", wire.Request{Theta: 0.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") != "client-id-42" || er.RequestID != "client-id-42" {
		t.Errorf("client id not propagated: header %q, body %q",
			resp.Header.Get("X-Request-ID"), er.RequestID)
	}

	// Unsanitary client ids are replaced with generated ones. The HTTP
	// client refuses to even send control characters, so exercise the
	// sanitizer directly.
	for _, bad := range []string{"bad id", "bad\x01id", strings.Repeat("x", maxRequestIDLen+1)} {
		hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/search", nil)
		hr.Header = http.Header{"X-Request-Id": []string{bad}}
		if got := requestIDFor(hr); got == bad || got == "" {
			t.Errorf("client id %q accepted unsanitized (got %q)", bad, got)
		}
	}
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/search", nil)
	hr.Header.Set("X-Request-ID", "good-id")
	if got := requestIDFor(hr); got != "good-id" {
		t.Errorf("sane client id replaced: %q", got)
	}
}

// syncBuffer makes a bytes.Buffer safe to share between the server's
// handler goroutines and the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLogging: past the threshold, the structured log carries
// the request id and the full stage breakdown.
func TestSlowQueryLogging(t *testing.T) {
	_, engine, q := testFixture(t)
	var buf syncBuffer
	srv := New(engine, Config{
		Logger:             slog.New(slog.NewTextHandler(&buf, nil)),
		SlowQueryThreshold: time.Nanosecond, // everything is slow
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
	id := resp.Header.Get("X-Request-ID")

	out := buf.String()
	for _, want := range []string{"slow query", "request_id=" + id, "sketch=", "gather=", "verify=", "msg=request", "path=/search"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// TestStatsWireFormatGolden pins the JSON wire shape of query stats —
// including the new per-stage breakdown — through /search, and the
// /explain response shape, so the formats cannot drift silently.
func TestStatsWireFormatGolden(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	keysOf := func(m map[string]any) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	equal := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/search",
		wire.Request{Tokens: q, Theta: 0.5, PrefixFilter: true, Verify: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d (%s)", resp.StatusCode, body)
	}
	var sr map[string]any
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	stats, ok := sr["stats"].(map[string]any)
	if !ok {
		t.Fatalf("no stats object in %s", body)
	}
	wantStats := []string{
		"beta", "candidates", "cpu_time_ns", "io_bytes", "io_time_ns", "k",
		"long_lists", "matches", "probed", "short_lists", "stages", "total_ns",
	}
	if got := keysOf(stats); !equal(got, wantStats) {
		t.Errorf("stats keys = %v, want %v", got, wantStats)
	}
	stages, ok := stats["stages"].(map[string]any)
	if !ok {
		t.Fatalf("no stages object in stats: %s", body)
	}
	wantStages := []string{"count_ns", "gather_ns", "merge_ns", "plan_ns", "sketch_ns", "verify_ns"}
	if got := keysOf(stages); !equal(got, wantStages) {
		t.Errorf("stages keys = %v, want %v", got, wantStages)
	}
	var stageSum float64
	for _, k := range wantStages {
		v, ok := stages[k].(float64)
		if !ok {
			t.Errorf("stage %s is not a number: %v", k, stages[k])
		}
		stageSum += v
	}
	if total := stats["total_ns"].(float64); stageSum > total {
		t.Errorf("stage sum %v exceeds total_ns %v", stageSum, total)
	}
	if stageSum <= 0 {
		t.Error("stage times all zero after an executed query")
	}

	// A miss serves an empty match list, never null.
	miss := make([]uint32, len(q))
	for i := range miss {
		miss[i] = 1<<20 + uint32(i)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: miss, Theta: 0.5})
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte(`{"matches":[],"stats":{`)) {
		t.Errorf("miss: %d %s, want 200 with \"matches\":[]", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.Client(), ts.URL+"/explain", wire.Request{Tokens: q, Theta: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d (%s)", resp.StatusCode, body)
	}
	var er map[string]any
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	wantExplain := []string{"alpha", "beta", "cutoff", "long", "num_long"}
	if got := keysOf(er); !equal(got, wantExplain) {
		t.Errorf("explain keys = %v, want %v", got, wantExplain)
	}
}
