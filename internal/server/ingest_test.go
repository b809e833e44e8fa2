package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndss/internal/core"
	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/wire"
)

// Live-ingest tests: POST /ingest must append texts as a new segment
// and hot-swap so they are searchable on return, POST /admin/compact
// must fold the segment set back to one, and neither may fail a single
// concurrent query.

// ingestFixture builds an index and a server wired for live ingest:
// Ingester appends a segment, Compactor merges the set, Reloader
// reopens the directory.
func ingestFixture(t *testing.T, compactAfter int) (*Server, string) {
	t.Helper()
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 7, DupRate: 0.5, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	dir := t.TempDir() + "/ix"
	buildCorpusAt(t, c, dir)
	backend, err := core.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(backend, Config{
		MaxInFlight:  128,
		Reloader:     func() (Backend, error) { return core.Open(dir, nil) },
		Ingester:     func(texts [][]uint32) (string, error) { return index.Append(dir, corpus.New(texts)) },
		Compactor:    func() error { return index.Compact(dir) },
		CompactAfter: compactAfter,
	})
	return srv, dir
}

// snippet returns a deterministic query/text of tokens disjoint from
// the fixture corpus vocabulary, so it matches only once ingested.
func snippet(seed, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(1000 + seed*100 + i)
	}
	return out
}

func searchMatches(t *testing.T, ts *httptest.Server, q []uint32, theta float64) []wire.Match {
	t.Helper()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: theta})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d (%s)", resp.StatusCode, body)
	}
	var sr wire.Response
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.Matches
}

func metricsSnapshot(t *testing.T, ts *httptest.Server) (ix indexSnapshot, segs map[string]int64) {
	t.Helper()
	resp := getMetricsJSON(t, ts.Client(), ts.URL)
	defer resp.Body.Close()
	var met struct {
		Index    indexSnapshot    `json:"index"`
		Segments map[string]int64 `json:"segments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	return met.Index, met.Segments
}

func TestIngestMakesTextsSearchable(t *testing.T) {
	srv, _ := ingestFixture(t, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	q := snippet(1, 30)
	if ms := searchMatches(t, ts, q, 0.9); len(ms) != 0 {
		t.Fatalf("snippet matched before ingest: %+v", ms)
	}
	oldID := healthzBuildID(t, ts)

	resp, body := postJSON(t, ts.Client(), ts.URL+"/ingest",
		ingestRequest{Texts: [][]uint32{snippet(1, 30), snippet(2, 40)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d (%s)", resp.StatusCode, body)
	}
	var ir map[string]any
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir["texts"] != float64(2) || ir["build_id"] == oldID || ir["build_id"] == "" {
		t.Fatalf("ingest response %v (old build %q)", ir, oldID)
	}

	// The ingested snippet is searchable the moment /ingest returns.
	ms := searchMatches(t, ts, q, 0.9)
	if len(ms) != 1 || ms[0].TextID != 40 {
		t.Fatalf("ingested snippet matches: %+v, want text 40", ms)
	}

	ix, segs := metricsSnapshot(t, ts)
	if ix.Segments != 2 || segs["ingests"] != 1 || segs["compactions"] != 0 {
		t.Fatalf("after ingest: index %+v, segments %v", ix, segs)
	}
	if ix.NumTexts != 42 {
		t.Fatalf("NumTexts after ingest = %d, want 42", ix.NumTexts)
	}

	// Compaction folds the set back to one segment; results unchanged.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/admin/compact", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d (%s)", resp.StatusCode, body)
	}
	var cr map[string]any
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr["segments"] != float64(1) {
		t.Fatalf("compact response %v", cr)
	}
	if ms := searchMatches(t, ts, q, 0.9); len(ms) != 1 || ms[0].TextID != 40 {
		t.Fatalf("snippet lost by compaction: %+v", ms)
	}
	ix, segs = metricsSnapshot(t, ts)
	if ix.Segments != 1 || segs["compactions"] != 1 {
		t.Fatalf("after compact: index %+v, segments %v", ix, segs)
	}

	// The Prometheus exposition carries the segment metrics.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{"ndss_segments_total 1", "ndss_ingests_total 1", "ndss_compactions_total 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	srv, _ := ingestFixture(t, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d, want 405", resp.StatusCode)
	}
	cases := []any{
		ingestRequest{},
		ingestRequest{Texts: [][]uint32{{1, 2, 3}, {}}},
		map[string]any{"texts": [][]uint32{{1, 2, 3}}, "bogus": 1},
	}
	for i, body := range cases {
		resp, b := postJSON(t, ts.Client(), ts.URL+"/ingest", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: %d (%s), want 400", i, resp.StatusCode, b)
		}
	}
}

// TestIngestRefusesNoTexts: an empty ingest through the Go API is an
// error before the Ingester runs, so it commits no segment, reloads
// nothing and does not count toward CompactAfter.
func TestIngestRefusesNoTexts(t *testing.T) {
	calls := 0
	srv := New(newStubBackend(t, "only", 1, false), Config{
		Ingester:     func([][]uint32) (string, error) { calls++; return "next", nil },
		CompactAfter: 1,
	})
	for _, texts := range [][][]uint32{nil, {}} {
		if id, err := srv.Ingest(texts); err == nil || id != "" {
			t.Fatalf("Ingest(%v) = %q, %v; want an error and no build", texts, id, err)
		}
	}
	if calls != 0 {
		t.Fatalf("empty ingests called the Ingester %d times", calls)
	}
}

func TestIngestWithoutIngester(t *testing.T) {
	b := newStubBackend(t, "only", 1, false)
	srv := New(b, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/ingest", ingestRequest{Texts: [][]uint32{{1, 2, 3}}})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("ingest without ingester: %d, want 501", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/admin/compact", struct{}{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("compact without compactor: %d, want 501", resp.StatusCode)
	}
}

// TestIngestZeroFailedRequests hammers /search from many goroutines
// while texts are ingested and the segment set is compacted repeatedly:
// every request must succeed, and each ingested snippet must be
// searchable the moment its POST /ingest returns — the acceptance bar
// for live ingest.
func TestIngestZeroFailedRequests(t *testing.T) {
	srv, _ := ingestFixture(t, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var (
		stop     atomic.Bool
		failures atomic.Int64
		requests atomic.Int64
		wg       sync.WaitGroup
	)
	hammerQ := snippet(99, 30)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, body := postJSON(t, ts.Client(), ts.URL+"/search",
					wire.Request{Tokens: hammerQ, Theta: 0.5})
				requests.Add(1)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("request failed during ingest/compact: %d (%s)", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	// Interleave ingests and compactions under the traffic.
	for i := 1; i <= 5; i++ {
		snip := snippet(i, 30)
		resp, body := postJSON(t, ts.Client(), ts.URL+"/ingest",
			ingestRequest{Texts: [][]uint32{snip}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d (%s)", i, resp.StatusCode, body)
		}
		if ms := searchMatches(t, ts, snip, 0.9); len(ms) != 1 {
			t.Fatalf("snippet %d not searchable after its ingest returned: %+v", i, ms)
		}
		if i%2 == 0 {
			resp, body = postJSON(t, ts.Client(), ts.URL+"/admin/compact", struct{}{})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compact after ingest %d: %d (%s)", i, resp.StatusCode, body)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed across ingest/compact cycles", failures.Load(), requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("no requests observed")
	}

	// Everything ingested survives the cycles.
	for i := 1; i <= 5; i++ {
		if ms := searchMatches(t, ts, snippet(i, 30), 0.9); len(ms) != 1 {
			t.Fatalf("snippet %d lost: %+v", i, ms)
		}
	}
}

// TestAutoCompaction: with CompactAfter set, ingests that grow the
// segment set past the threshold trigger a background compaction that
// folds it back to one segment without operator action.
func TestAutoCompaction(t *testing.T) {
	srv, _ := ingestFixture(t, 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 1; i <= 3; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/ingest",
			ingestRequest{Texts: [][]uint32{snippet(i, 30)}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	// The set grew past CompactAfter=2 at some point, so a background
	// compaction must land and bring it back within the threshold (how
	// many ingests land before it runs is timing-dependent).
	deadline := time.Now().Add(10 * time.Second)
	for {
		ix, segs := metricsSnapshot(t, ts)
		if ix.Segments <= 2 && segs["compactions"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never landed: index %+v, segments %v", ix, segs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv.compactWG.Wait()
	for i := 1; i <= 3; i++ {
		if ms := searchMatches(t, ts, snippet(i, 30), 0.9); len(ms) != 1 {
			t.Fatalf("snippet %d lost by auto-compaction: %+v", i, ms)
		}
	}
}
