package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndss"
	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
	"ndss/internal/wire"
)

// Hot-reload tests: POST /admin/reload must swap to a freshly opened
// backend with zero failed requests, drain in-flight queries on the
// old backend before closing it, and flush the result cache.

// buildCorpusAt builds an index over c at dir (atomically, like a
// production rebuild under a live server).
func buildCorpusAt(t *testing.T, c *corpus.Corpus, dir string) {
	t.Helper()
	if _, err := index.Build(c, dir, index.BuildOptions{K: 8, Seed: 21, T: 5, ZoneMapStep: 4, LongListCutoff: 8}); err != nil {
		t.Fatal(err)
	}
}

func reloadFixture(t *testing.T) (srv *Server, dir string, c1, c2 *corpus.Corpus, query []uint32) {
	t.Helper()
	c1 = corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 7, DupRate: 0.5, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	c2 = corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 60, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 8, DupRate: 0.5, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	dir = t.TempDir() + "/ix"
	buildCorpusAt(t, c1, dir)
	backend, err := ndss.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv = New(backend, Config{
		MaxInFlight: 128,
		Reloader: func() (Backend, error) {
			return ndss.Open(dir)
		},
	})
	return srv, dir, c1, c2, c1.Text(0)[:12]
}

func healthzBuildID(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		BuildID string `json:"build_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.BuildID
}

func TestReloadSwapsBuild(t *testing.T) {
	srv, dir, _, c2, q := reloadFixture(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	oldID := healthzBuildID(t, ts)
	if oldID == "" {
		t.Fatalf("healthz build id = %q", oldID)
	}

	// Rebuild in place (atomic commit), then hot-swap.
	buildCorpusAt(t, c2, dir)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/admin/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d (%s)", resp.StatusCode, body)
	}
	var rr map[string]string
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr["old_build_id"] != oldID {
		t.Fatalf("reload reports old build %q, healthz said %q", rr["old_build_id"], oldID)
	}
	newID := healthzBuildID(t, ts)
	if newID == oldID || newID != rr["build_id"] {
		t.Fatalf("build id after reload = %q (reload said %q, old %q)", newID, rr["build_id"], oldID)
	}

	// Queries run against the new index (c2 has more texts).
	resp, body = postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after reload: %d (%s)", resp.StatusCode, body)
	}

	// Metrics report the reload and the new build.
	ix := metricsSnapshot(t, ts)
	if ix.Reloaded != 1 {
		t.Fatalf("metrics reloads = %d, want 1", ix.Reloaded)
	}
	if ix.BuildID != newID {
		t.Fatalf("metrics build id %q, want %q", ix.BuildID, newID)
	}
}

// TestReloadZeroFailedRequests hammers /search from many goroutines
// while the index is rebuilt and hot-swapped repeatedly: every single
// request must succeed — the acceptance bar for zero-downtime reload.
func TestReloadZeroFailedRequests(t *testing.T) {
	srv, dir, _, c2, q := reloadFixture(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var (
		stop     atomic.Bool
		failures atomic.Int64
		requests atomic.Int64
		wg       sync.WaitGroup
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, body := postJSON(t, ts.Client(), ts.URL+"/search",
					wire.Request{Tokens: q, Theta: 0.5})
				requests.Add(1)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("request failed during reload: %d (%s)", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	// Interleave rebuilds and hot swaps under the traffic.
	for i := 0; i < 5; i++ {
		c := c2
		if i%2 == 1 {
			c = corpus.MustSynthesize(corpus.SynthConfig{
				NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 40,
				ZipfS: 1.3, Seed: int64(20 + i), DupRate: 0.5, DupSnippetLen: 20, DupMutateProb: 0.05,
			})
		}
		buildCorpusAt(t, c, dir)
		resp, body := postJSON(t, ts.Client(), ts.URL+"/admin/reload", struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: %d (%s)", i, resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed across reloads", failures.Load(), requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("no requests observed")
	}
}

// TestMetricsScrapeDuringReload races JSON and exposition scrapes of
// /metrics against repeated reloads. A scrape must pin the backend it
// reads: an unpinned one can be closed under it (a data race under
// -race on the index's segment set).
func TestMetricsScrapeDuringReload(t *testing.T) {
	srv, _, _, _, _ := reloadFixture(t)
	var (
		stop    atomic.Bool
		scrapes atomic.Int64
		wg      sync.WaitGroup
	)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("scrape: status %d", rec.Code)
					return
				}
				scrapes.Add(1)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, _, err := srv.Reload(); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if scrapes.Load() == 0 {
		t.Fatal("no scrapes observed")
	}
}

// stubBackend is a fully controllable Backend for drain/cache tests.
type stubBackend struct {
	id      string
	match   search.Match
	entered chan struct{} // closed when a search has started executing
	gate    chan struct{} // searches block until closed (nil = no block)
	closed  atomic.Bool
	once    sync.Once
}

func newStubBackend(t *testing.T, id string, matchID uint32, blocking bool) *stubBackend {
	t.Helper()
	b := &stubBackend{id: id, match: search.Match{TextID: matchID, EstJaccard: 1}}
	if blocking {
		b.entered = make(chan struct{})
		b.gate = make(chan struct{})
	}
	return b
}

func (b *stubBackend) SearchContext(ctx context.Context, q []uint32, o search.Options) ([]search.Match, *search.Stats, error) {
	if b.closed.Load() {
		panic("query executed on closed backend")
	}
	if b.gate != nil {
		b.once.Do(func() { close(b.entered) })
		<-b.gate
	}
	return []search.Match{b.match}, &search.Stats{Matches: 1}, nil
}

func (b *stubBackend) Meta() index.Meta { return index.Meta{K: 4, T: 2, NumTexts: 1} }
func (b *stubBackend) BuildID() string  { return b.id }
func (b *stubBackend) Close() error     { b.closed.Store(true); return nil }

// TestReloadDrainsInFlight parks a query inside the old backend, swaps,
// and checks that Reload waits for the query to finish before closing
// the old backend — while new queries already run on the new one.
func TestReloadDrainsInFlight(t *testing.T) {
	oldB := newStubBackend(t, "old", 1, true)
	newB := newStubBackend(t, "new", 2, false)
	srv := New(oldB, Config{
		CacheEntries: -1,
		Reloader:     func() (Backend, error) { return newB, nil },
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	q := []uint32{1, 2, 3, 4, 5}
	inFlight := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
		inFlight <- resp.StatusCode
	}()
	<-oldB.entered // the query is executing inside the old backend

	reloadDone := make(chan struct{})
	go func() {
		if _, _, err := srv.Reload(); err != nil {
			t.Errorf("reload: %v", err)
		}
		close(reloadDone)
	}()

	// The swap is immediate: new queries hit the new backend even while
	// the old one still drains.
	deadline := time.After(5 * time.Second)
	servingID := func() string {
		b, release := srv.acquire()
		defer release()
		return b.BuildID()
	}
	for servingID() != "new" {
		select {
		case <-deadline:
			t.Fatal("backend not swapped while old query drains")
		case <-time.After(time.Millisecond):
		}
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query on new backend during drain: %d (%s)", resp.StatusCode, body)
	}

	// Reload must still be waiting on the parked query.
	select {
	case <-reloadDone:
		t.Fatal("reload completed before in-flight query drained")
	default:
	}
	if oldB.closed.Load() {
		t.Fatal("old backend closed with a query still in flight")
	}

	close(oldB.gate) // release the parked query
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight query failed across reload: %d", code)
	}
	select {
	case <-reloadDone:
	case <-time.After(5 * time.Second):
		t.Fatal("reload did not complete after drain")
	}
	if !oldB.closed.Load() {
		t.Fatal("old backend not closed after drain")
	}
}

// TestReloadFlushesCache ensures results cached against the old index
// are not served after the swap.
func TestReloadFlushesCache(t *testing.T) {
	oldB := newStubBackend(t, "old", 1, false)
	newB := newStubBackend(t, "new", 2, false)
	srv := New(oldB, Config{
		CacheEntries: 64,
		Reloader:     func() (Backend, error) { return newB, nil },
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	q := []uint32{1, 2, 3, 4, 5}
	// Decode into a fresh struct each time: "cached" is omitempty, so
	// reusing one target would leak a stale true across responses.
	search1 := func() wire.Response {
		var sr wire.Response
		_, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	sr := search1()
	if len(sr.Matches) != 1 || sr.Matches[0].TextID != 1 {
		t.Fatalf("pre-reload matches: %+v", sr.Matches)
	}
	// Same query again: served from cache.
	if sr = search1(); !sr.Cached {
		t.Fatal("second identical query not cached")
	}

	if _, _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if sr = search1(); sr.Cached {
		t.Fatal("stale cache entry served after reload")
	}
	if len(sr.Matches) != 1 || sr.Matches[0].TextID != 2 {
		t.Fatalf("post-reload matches came from the old index: %+v", sr.Matches)
	}
}

func TestReloadWithoutReloader(t *testing.T) {
	b := newStubBackend(t, "only", 1, false)
	srv := New(b, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/admin/reload", struct{}{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without reloader: %d, want 501", resp.StatusCode)
	}
}

// TestReloadFailureKeepsServing: a reloader error must leave the old
// backend serving untouched and count a failed reload.
func TestReloadFailureKeepsServing(t *testing.T) {
	b := newStubBackend(t, "stable", 1, false)
	srv := New(b, Config{
		CacheEntries: -1,
		Reloader:     func() (Backend, error) { return nil, context.DeadlineExceeded },
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/admin/reload", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload status %d, want 500", resp.StatusCode)
	}
	if got := healthzBuildID(t, ts); got != "stable" {
		t.Fatalf("backend changed by failed reload: %q", got)
	}
	q := []uint32{1, 2, 3, 4, 5}
	sresp, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("search after failed reload: %d (%s)", sresp.StatusCode, body)
	}
	if b.closed.Load() {
		t.Fatal("old backend closed by failed reload")
	}
}
