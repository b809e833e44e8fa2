package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ndss"
	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
	"ndss/internal/wire"
)

// testFixture builds a small on-disk index and returns the corpus, the
// opened engine, and a query planted to have near-duplicates.
func testFixture(t testing.TB) (*corpus.Corpus, *ndss.DB, []uint32) {
	t.Helper()
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 7, DupRate: 0.5, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	dir := t.TempDir()
	if _, err := index.Build(c, dir, index.BuildOptions{K: 8, Seed: 21, T: 5, ZoneMapStep: 4, LongListCutoff: 8}); err != nil {
		t.Fatal(err)
	}
	engine := openDB(t, dir, c)
	t.Cleanup(func() { engine.Close() })
	return c, engine, c.Text(0)[:12]
}

// openDB opens the index at dir with src attached for verification.
func openDB(t testing.TB, dir string, src search.TextSource) *ndss.DB {
	t.Helper()
	db, err := ndss.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Attach(src); err != nil {
		t.Fatal(err)
	}
	return db
}

// scrapeMetrics fetches ts's /metrics and parses it with the
// exposition line-format checker.
func scrapeMetrics(t *testing.T, ts *httptest.Server) []promSample {
	t.Helper()
	return parsePromExposition(t, scrapeBody(t, ts))
}

// scrapeBody returns the /metrics exposition as served.
func scrapeBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// awaitRequests polls /metrics until ndss_requests_total sums to want,
// failing the test after five seconds. The server observes an admitted
// request's latency, which every per-endpoint and per-outcome request
// counter derives from, in a deferred call that runs after the response
// is written: a client can read its last response before /metrics
// counts it. A test that pins those counters right after a response
// waits here first.
func awaitRequests(t *testing.T, ts *httptest.Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := sumSamples(scrapeMetrics(t, ts), "ndss_requests_total", nil)
		if total >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics counts %d requests after 5s, want %d", total, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestServeSearchBasic(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	wantMatches, _, err := engine.Search(q, search.Options{Theta: 0.5, PrefixFilter: true})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/search",
		wire.Request{Tokens: q, Theta: 0.5, PrefixFilter: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr wire.Response
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if len(sr.Matches) != len(wantMatches) {
		t.Fatalf("served %d matches, engine found %d", len(sr.Matches), len(wantMatches))
	}
	for i, m := range sr.Matches {
		w := wantMatches[i]
		if m.TextID != w.TextID || m.Start != w.Start || m.End != w.End || m.Collisions != w.Collisions {
			t.Fatalf("match %d differs: %+v vs %+v", i, m, w)
		}
	}
	if sr.Stats.K != 8 || sr.Stats.Beta != 4 {
		t.Fatalf("stats wrong: %+v", sr.Stats)
	}
	if sr.Cached {
		t.Fatal("first request served from cache")
	}

	// healthz and explain answer.
	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hz.StatusCode)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/explain",
		wire.Request{Tokens: q, Theta: 0.5, PrefixFilter: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d: %s", resp.StatusCode, body)
	}
	var plan struct {
		Beta int    `json:"beta"`
		Long []bool `json:"long"`
	}
	if err := json.Unmarshal(body, &plan); err != nil || plan.Beta != 4 || len(plan.Long) != 8 {
		t.Fatalf("explain response %s (err %v)", body, err)
	}
}

func TestServeCacheHit(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := wire.Request{Tokens: q, Theta: 0.5, PrefixFilter: true}
	_, body1 := postJSON(t, ts.Client(), ts.URL+"/search", req)
	_, body2 := postJSON(t, ts.Client(), ts.URL+"/search", req)
	var r1, r2 wire.Response
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Fatalf("cache flags: first %v second %v", r1.Cached, r2.Cached)
	}
	if len(r1.Matches) != len(r2.Matches) {
		t.Fatalf("cached result differs: %d vs %d matches", len(r1.Matches), len(r2.Matches))
	}
	// Different options must miss.
	_, body3 := postJSON(t, ts.Client(), ts.URL+"/search",
		wire.Request{Tokens: q, Theta: 0.75, PrefixFilter: true})
	var r3 wire.Response
	if err := json.Unmarshal(body3, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("different theta served from cache")
	}

	samples := scrapeMetrics(t, ts)
	hits, misses := sumSamples(samples, "ndss_cache_hits_total", nil), sumSamples(samples, "ndss_cache_misses_total", nil)
	if hits != 1 || misses != 2 {
		t.Fatalf("cache counters hits=%d misses=%d", hits, misses)
	}
}

// TestServeTopKDefaultFloorSharesCacheEntry: a top-k request without
// floor_theta runs at defaultFloorTheta, so it and one naming that
// floor are the same query and share one cache entry.
func TestServeTopKDefaultFloorSharesCacheEntry(t *testing.T) {
	_, engine, q := testFixture(t)
	ts := httptest.NewServer(New(engine, Config{}))
	defer ts.Close()

	var rs [2]wire.Response
	for i, req := range []wire.Request{
		{Tokens: q, N: 2},
		{Tokens: q, N: 2, FloorTheta: defaultFloorTheta},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/search/topk", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if rs[0].Cached || !rs[1].Cached {
		t.Fatalf("cache flags: default floor %v, explicit floor %v; want a miss then a hit", rs[0].Cached, rs[1].Cached)
	}
	if len(rs[0].Matches) == 0 || len(rs[0].Matches) != len(rs[1].Matches) {
		t.Fatalf("matches: %d vs %d", len(rs[0].Matches), len(rs[1].Matches))
	}
}

func TestServeConcurrentSearches(t *testing.T) {
	c, engine, _ := testFixture(t)
	srv := New(engine, Config{MaxInFlight: 32, CacheEntries: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A mix of distinct queries, each checked against the engine.
	type item struct {
		q    []uint32
		want int
	}
	var items []item
	for i := 0; i < 8; i++ {
		q := c.Text(uint32(i))[:12]
		ms, _, err := engine.Search(q, search.Options{Theta: 0.5, PrefixFilter: true})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, item{q: q, want: len(ms)})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				it := items[(w+rep)%len(items)]
				data, _ := json.Marshal(wire.Request{Tokens: it.q, Theta: 0.5, PrefixFilter: true})
				resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err
					return
				}
				var sr wire.Response
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if len(sr.Matches) != it.want {
					errs <- fmt.Errorf("worker %d rep %d: %d matches, want %d", w, rep, len(sr.Matches), it.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	awaitRequests(t, ts, 32)
	samples := scrapeMetrics(t, ts)
	searches := sumSamples(samples, "ndss_requests_total", map[string]string{"endpoint": "search"})
	observed := sumSamples(samples, "ndss_request_duration_seconds_count", nil)
	if searches != 32 || observed != 32 {
		t.Fatalf("metrics after 32 searches: %d search requests, %d latency observations", searches, observed)
	}
}

// TestCacheHoldsNoSpans is the regression test for the result cache
// pinning dead span lists: the cache used to store the whole
// search.Stats, spans and all. No reply carries a span list now, sampled
// or not, so an entry holds the response as served, and a hit is byte
// for byte the miss plus the cached flag.
func TestCacheHoldsNoSpans(t *testing.T) {
	_, engine, q := testFixture(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unsampled", Config{}},
		{"sampled", Config{TraceSampleRate: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(engine, tc.cfg)
			ts := httptest.NewServer(srv)
			defer ts.Close()

			req := wire.Request{Tokens: q, Theta: 0.5, PrefixFilter: true}
			_, miss := postJSON(t, ts.Client(), ts.URL+"/search", req)
			_, hit := postJSON(t, ts.Client(), ts.URL+"/search", req)

			if srv.cache.len() != 1 {
				t.Fatalf("cache holds %d entries, want 1", srv.cache.len())
			}
			e := srv.cache.ll.Front().Value.(*cacheEntry)
			if e.resp.Stats.StageTimes.Gather <= 0 {
				t.Errorf("cached entry lost its stage split: %+v", e.resp.Stats.StageTimes)
			}
			if bytes.Contains(miss, []byte(`"spans"`)) {
				t.Fatalf("the miss carried a span list: %s", miss)
			}
			wantHit := strings.TrimSuffix(string(miss), "}\n") + `,"cached":true}` + "\n"
			if string(hit) != wantHit {
				t.Errorf("hit is not the miss plus the cached flag:\n hit %s\nwant %s", hit, wantHit)
			}
		})
	}
}

// slowReader delays every list read, making queries take long
// enough for deadlines to expire mid-gather.
type slowReader struct {
	search.IndexReader
	delay time.Duration
}

func (r slowReader) ReadRowsInto(dst []index.Posting, rows *index.Rows, fn int, lo, hi uint32, sink *index.IOStats) ([]index.Posting, error) {
	time.Sleep(r.delay)
	return r.IndexReader.ReadRowsInto(dst, rows, fn, lo, hi, sink)
}

// searcherBackend adapts a search.Searcher over a wrapped reader to the
// Backend interface; ix is the index the wrapped reader reads.
type searcherBackend struct {
	*search.Searcher
	ix *index.Index
}

func (b searcherBackend) Explain(ctx context.Context, q []uint32, o search.Options) (*search.Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Searcher.Explain(q, o)
}

func (b searcherBackend) Meta() index.Meta { return b.ix.Meta() }
func (b searcherBackend) BuildID() string  { return "test" }

func slowFixture(t *testing.T, delay time.Duration) (Backend, []uint32) {
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
	slow := slowReader{IndexReader: ix, delay: delay}
	return searcherBackend{Searcher: search.New(slow, c), ix: ix}, c.Text(0)[:12]
}

// TestServeDeadlineExpiry: a request whose deadline expires mid-query
// must return 504 promptly (well before the unconstrained query would
// finish) and leak no goroutines. Run under -race in CI.
func TestServeDeadlineExpiry(t *testing.T) {
	// 8 lists x 40ms = at least 320ms unconstrained.
	backend, q := slowFixture(t, 40*time.Millisecond)
	srv := New(backend, Config{CacheEntries: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := runtime.NumGoroutine()
	start := time.Now()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/search",
		wire.Request{Tokens: q, Theta: 0.5, TimeoutMS: 60})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("timed-out query took %v; cancellation not prompt", elapsed)
	}
	var er wire.Error
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("error body %q (%v)", body, err)
	}

	// The request goroutine unwinds; nothing keeps running the query.
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}

	awaitRequests(t, ts, 1)
	if n := sumSamples(scrapeMetrics(t, ts), "ndss_requests_total", map[string]string{"outcome": "timeout"}); n != 1 {
		t.Fatalf("timeout counter = %d, want 1", n)
	}
}

// blockingReader parks every read until the gate closes, so a request
// can be held in-flight deterministically.
type blockingReader struct {
	search.IndexReader
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (r *blockingReader) ReadRowsInto(dst []index.Posting, rows *index.Rows, fn int, lo, hi uint32, sink *index.IOStats) ([]index.Posting, error) {
	r.once.Do(func() { close(r.entered) })
	<-r.gate
	return r.IndexReader.ReadRowsInto(dst, rows, fn, lo, hi, sink)
}

func blockingFixture(t *testing.T) (*blockingReader, Backend, []uint32) {
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
	br := &blockingReader{
		IndexReader: ix,
		gate:        make(chan struct{}),
		entered:     make(chan struct{}),
	}
	return br, searcherBackend{Searcher: search.New(br, c), ix: ix}, c.Text(0)[:12]
}

func TestServeAdmissionSaturated(t *testing.T) {
	br, backend, q := blockingFixture(t)
	srv := New(backend, Config{MaxInFlight: 1, CacheEntries: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Request 1 parks inside the index read, holding the only slot.
	done := make(chan int, 1)
	go func() {
		data, _ := json.Marshal(wire.Request{Tokens: q, Theta: 0.5})
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(data))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-br.entered

	// Request 2 must be rejected immediately with 429.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d (%s), want 429", resp.StatusCode, body)
	}

	close(br.gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request finished with %d", code)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	br, backend, q := blockingFixture(t)
	srv := New(backend, Config{CacheEntries: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		data, _ := json.Marshal(wire.Request{Tokens: q, Theta: 0.5})
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(data))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-br.entered

	srv.BeginShutdown()

	// New queries and health checks are refused while draining.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown search status %d, want 503", resp.StatusCode)
	}
	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown healthz %d, want 503", hz.StatusCode)
	}

	// The in-flight request still completes.
	close(br.gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("draining request finished with %d", code)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name string
		req  wire.Request
	}{
		{"no tokens", wire.Request{Theta: 0.5}},
		{"theta zero", wire.Request{Tokens: q}},
		{"theta above one", wire.Request{Tokens: q, Theta: 1.5}},
		{"negative min length", wire.Request{Tokens: q, Theta: 0.5, MinLength: -1}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/search", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, body)
		}
	}

	// Wrong method.
	resp, err := ts.Client().Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search status %d, want 405", resp.StatusCode)
	}
	// Unknown fields rejected, the retired plan knobs among them.
	for _, field := range []string{`"bogus":1`, `"long_list_threshold":100`, `"cost_based":true`} {
		r2, err := ts.Client().Post(ts.URL+"/search", "application/json",
			strings.NewReader(`{"tokens":[1,2],"theta":0.5,`+field+`}`))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field %s: status %d, want 400", field, r2.StatusCode)
		}
	}
	// Top-k without n.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/search/topk", wire.Request{Tokens: q, Theta: 0.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("topk without n: status %d (%s)", resp.StatusCode, body)
	}
}

func TestServeTopK(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	want, _, err := engine.SearchContext(context.Background(), q, search.Options{Theta: 0.5, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/search/topk",
		wire.Request{Tokens: q, N: 3, FloorTheta: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr wire.Response
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Matches) != len(want) {
		t.Fatalf("served %d, engine found %d", len(sr.Matches), len(want))
	}
	for i := range want {
		if sr.Matches[i].TextID != want[i].TextID || sr.Matches[i].Collisions != want[i].Collisions {
			t.Fatalf("rank %d differs: %+v vs %+v", i, sr.Matches[i], want[i])
		}
	}
}

// blockedExplainBackend never answers Explain until the caller gives
// up: a coordinator whose shard black-holes the plan request.
type blockedExplainBackend struct{ Backend }

func (blockedExplainBackend) Explain(ctx context.Context, _ []uint32, _ search.Options) (*search.Plan, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestExplainHonoursDeadline: /explain runs under the request deadline
// (timeout_ms, else the server default) like any query — it used to
// pass the bare request context, so behind a coordinator a black-holed
// shard hung the request, and any failure was reported as a 400.
func TestExplainHonoursDeadline(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(blockedExplainBackend{engine}, Config{DefaultTimeout: 40 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, req := range []wire.Request{
		{Tokens: q, Theta: 0.5, TimeoutMS: 20}, // the request's own budget
		{Tokens: q, Theta: 0.5},                // the server default
	} {
		start := time.Now()
		resp, body := postJSON(t, ts.Client(), ts.URL+"/explain", req)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("timeout_ms=%d: status %d (%s), want 504", req.TimeoutMS, resp.StatusCode, body)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("timeout_ms=%d: answered after %v; deadline not applied", req.TimeoutMS, elapsed)
		}
	}
	checkCells(t, ts, srv, map[string]int64{"explain/timeout": 2})
	checkCounters(t, ts, map[string]int64{"total": 2, "explain": 2, "timeout": 2}, 0, 0)
}

// TestServeHugeTimeoutCapped: a timeout_ms too large for a Duration is
// capped at MaxTimeout like any other, not overflowed into a deadline
// that has already passed.
func TestServeHugeTimeoutCapped(t *testing.T) {
	_, engine, q := testFixture(t)
	ts := httptest.NewServer(New(engine, Config{CacheEntries: -1}))
	defer ts.Close()

	for _, ms := range []int{1e13, math.MaxInt64} {
		for _, path := range []string{"/search", "/explain"} {
			resp, body := postJSON(t, ts.Client(), ts.URL+path, wire.Request{Tokens: q, Theta: 0.5, TimeoutMS: ms})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s timeout_ms=%d: status %d (%s), want 200", path, ms, resp.StatusCode, body)
			}
		}
	}
}

func TestServeExplainGet(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	url := ts.URL + "/explain?theta=0.5&prefix_filter=1&tokens="
	for i, tok := range q {
		if i > 0 {
			url += ","
		}
		url += fmt.Sprint(tok)
	}
	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET explain status %d", resp.StatusCode)
	}
	var plan struct {
		Beta int `json:"beta"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil || plan.Beta == 0 {
		t.Fatalf("bad plan response (err %v, beta %d)", err, plan.Beta)
	}

	// "%g" parses NaN, which fails every range comparison: it must still
	// be refused, not planned with beta floored to 1.
	nan, err := ts.Client().Get(strings.Replace(url, "theta=0.5", "theta=NaN", 1))
	if err != nil {
		t.Fatal(err)
	}
	nan.Body.Close()
	if nan.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET explain theta=NaN status %d, want 400", nan.StatusCode)
	}
}

// TestServeExplainGetStrict: the GET form's numbers must parse whole.
// A trailing byte is a 400, not a value read up to where it stops.
func TestServeExplainGetStrict(t *testing.T) {
	_, engine, q := testFixture(t)
	ts := httptest.NewServer(New(engine, Config{}))
	defer ts.Close()

	toks := make([]string, len(q))
	for i, tok := range q {
		toks[i] = fmt.Sprint(tok)
	}
	valid := strings.Join(toks, ",")
	for _, tc := range []struct {
		name, theta, tokens string
		want                int
	}{
		{"valid", "0.8", valid, http.StatusOK},
		{"spaces between tokens", "0.8", strings.Join(toks, " "), http.StatusOK},
		{"token with trailing bytes", "0.8", "12abc," + valid, http.StatusBadRequest},
		{"lone token with trailing bytes", "0.8", "12abc", http.StatusBadRequest},
		{"theta with trailing bytes", "0.8xyz", valid, http.StatusBadRequest},
		{"theta with trailing space", "0.8 ", valid, http.StatusBadRequest},
		{"missing theta", "", valid, http.StatusBadRequest},
		{"token above 2^32-1", "0.8", "4294967296," + valid, http.StatusBadRequest},
		{"negative token", "0.8", "-1," + valid, http.StatusBadRequest},
		{"signed token", "0.8", "+12," + valid, http.StatusBadRequest},
		{"fractional token", "0.8", "12.0," + valid, http.StatusBadRequest},
	} {
		v := url.Values{"theta": {tc.theta}, "tokens": {tc.tokens}}
		resp, err := ts.Client().Get(ts.URL + "/explain?" + v.Encode())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s (theta=%q tokens=%q): status %d, want %d", tc.name, tc.theta, tc.tokens, resp.StatusCode, tc.want)
		}
	}
}
