package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndss"
	"ndss/internal/corpus"
	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/search"
	"ndss/internal/shard"
	"ndss/internal/wire"
)

// End-to-end sharded serving: a shard.Coordinator is just another
// Backend, so a server over two shards must answer /search and
// /search/topk byte-identically to a server over the merged index, and
// /metrics must expose the per-shard fan-out series.

// shardedServerFixture builds one corpus, serves it whole through one
// server and split into two doc-range shards through another.
func shardedServerFixture(t *testing.T, cfg shard.Config) (singleTS, shardedTS *httptest.Server, q []uint32) {
	t.Helper()
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 7, DupRate: 0.6, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	texts := make([][]uint32, c.NumTexts())
	for i := range texts {
		texts[i] = c.Text(uint32(i))
	}
	open := func(sub [][]uint32) *ndss.DB {
		t.Helper()
		dir := t.TempDir()
		cc := corpus.New(sub)
		if _, err := index.Build(cc, dir, index.BuildOptions{K: 8, Seed: 21, T: 5}); err != nil {
			t.Fatal(err)
		}
		return openDB(t, dir, cc)
	}

	single := open(texts)
	t.Cleanup(func() { single.Close() })
	singleTS = httptest.NewServer(New(single, Config{}))
	t.Cleanup(singleTS.Close)

	coord, err := shard.NewCoordinator([]shard.ShardClient{
		shard.NewLocal("s0", open(texts[:20])),
		shard.NewLocal("s1", open(texts[20:])),
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	shardedTS = httptest.NewServer(New(coord, Config{}))
	t.Cleanup(shardedTS.Close)
	return singleTS, shardedTS, texts[25][:12]
}

func TestShardedServerMatchesSingleServer(t *testing.T) {
	singleTS, shardedTS, q := shardedServerFixture(t, shard.Config{})
	for _, tc := range []struct {
		path string
		req  wire.Request
	}{
		{"/search", wire.Request{Tokens: q, Theta: 0.5}},
		{"/search", wire.Request{Tokens: q, Theta: 0.8, Verify: true}},
		{"/search/topk", wire.Request{Tokens: q, N: 5}},
	} {
		resp, body := postJSON(t, singleTS.Client(), singleTS.URL+tc.path, tc.req)
		if resp.StatusCode != 200 {
			t.Fatalf("%s single: %d (%s)", tc.path, resp.StatusCode, body)
		}
		var want wire.Response
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		resp, body = postJSON(t, shardedTS.Client(), shardedTS.URL+tc.path, tc.req)
		if resp.StatusCode != 200 {
			t.Fatalf("%s sharded: %d (%s)", tc.path, resp.StatusCode, body)
		}
		var got wire.Response
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Errorf("%s %+v: sharded matches diverge:\n got %+v\nwant %+v", tc.path, tc.req, got.Matches, want.Matches)
		}
		if got.Stats.ShardsTotal != 2 || got.Stats.ShardsAnswered != 2 {
			t.Errorf("%s: sharded stats report %d/%d shards", tc.path, got.Stats.ShardsAnswered, got.Stats.ShardsTotal)
		}
		if len(got.Stats.PerShard) != 2 || got.Stats.PerShard[0].Shard != "s0" {
			t.Errorf("%s: per-shard attribution missing: %+v", tc.path, got.Stats.PerShard)
		}
		if want.Stats.ShardsTotal != 0 {
			t.Errorf("%s: single-index stats unexpectedly sharded: %+v", tc.path, want.Stats)
		}
	}

	// The sharded healthz advertises the combined build id and the
	// aggregate index metadata.
	resp, err := shardedTS.Client().Get(shardedTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		BuildID string     `json:"build_id"`
		Index   index.Meta `json:"index"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(hz.BuildID, "sharded-2-") {
		t.Errorf("sharded healthz build_id = %q", hz.BuildID)
	}
	if hz.Index.NumTexts != 40 {
		t.Errorf("sharded healthz index meta = %+v, want 40 texts", hz.Index)
	}
}

func TestShardedServerMetricsExposition(t *testing.T) {
	_, shardedTS, q := shardedServerFixture(t, shard.Config{})
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, shardedTS.Client(), shardedTS.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
		if resp.StatusCode != 200 {
			t.Fatalf("search %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, err := shardedTS.Client().Get(shardedTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	// Repeats of the same query are served from cache and cause no
	// fan-out, so exactly one leg per shard.
	for _, want := range []string{
		`ndss_shard_requests_total{shard="s0"} 1`,
		`ndss_shard_requests_total{shard="s1"} 1`,
		`ndss_shard_errors_total{shard="s0"} 0`,
		"ndss_shard_partial_results_total 0",
		`ndss_shard_request_duration_seconds_count{shard="s0"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("sharded /metrics missing %q", want)
		}
	}

	// The JSON rendering carries the same counters.
	jresp := getMetricsJSON(t, shardedTS.Client(), shardedTS.URL)
	defer jresp.Body.Close()
	var met struct {
		Shards struct {
			PartialResults int64 `json:"partial_results"`
			Shards         []struct {
				Shard    string `json:"shard"`
				Requests int64  `json:"requests"`
			} `json:"shards"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	if len(met.Shards.Shards) != 2 || met.Shards.Shards[0].Requests != 1 {
		t.Errorf("JSON metrics shards = %+v", met.Shards)
	}
}

// slowShardBackend answers instantly or parks until its context is
// canceled, for driving budget-miss partials through the full server.
type slowShardBackend struct {
	fam   *hash.Family
	slow  bool
	match search.Match
	err   error // when set, every search fails with it
}

func newSlowShardBackend(t *testing.T, slow bool, matchID uint32) *slowShardBackend {
	t.Helper()
	fam, err := hash.NewFamily(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &slowShardBackend{fam: fam, slow: slow, match: search.Match{TextID: matchID, Collisions: 8, EstJaccard: 1}}
}

func (b *slowShardBackend) SearchContext(ctx context.Context, q []uint32, o search.Options) ([]search.Match, *search.Stats, error) {
	if b.slow {
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	if b.err != nil {
		return nil, nil, b.err
	}
	return []search.Match{b.match}, &search.Stats{Matches: 1}, nil
}

func (b *slowShardBackend) SearchTopKContext(ctx context.Context, q []uint32, o search.TopKOptions) ([]search.Match, *search.Stats, error) {
	return b.SearchContext(ctx, q, o.Search)
}

func (b *slowShardBackend) Explain(ctx context.Context, q []uint32, o search.Options) (*search.Plan, error) {
	return &search.Plan{}, nil
}

func (b *slowShardBackend) Meta() index.Meta       { return index.Meta{K: 8, Seed: 1, T: 2, NumTexts: 5} }
func (b *slowShardBackend) Family() *hash.Family   { return b.fam }
func (b *slowShardBackend) IOStats() index.IOStats { return index.IOStats{} }
func (b *slowShardBackend) BuildID() string        { return "stub" }

// TestShardedServerPartialResult is the acceptance check for deadline
// partials through the whole stack: a shard missing its budget yields a
// 200 flagged partial — not an error — and increments
// ndss_shard_partial_results_total.
func TestShardedServerPartialResult(t *testing.T) {
	coord, err := shard.NewCoordinator([]shard.ShardClient{
		shard.NewLocal("fast", newSlowShardBackend(t, false, 2)),
		shard.NewLocal("slow", newSlowShardBackend(t, true, 0)),
	}, shard.Config{ShardBudget: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(coord, Config{CacheEntries: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: []uint32{1, 2, 3}, Theta: 0.5})
	if resp.StatusCode != 200 {
		t.Fatalf("partial query: %d (%s), want 200", resp.StatusCode, body)
	}
	var sr wire.Response
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Matches) != 1 || sr.Matches[0].TextID != 2 {
		t.Fatalf("partial matches = %+v, want the fast shard's text 2", sr.Matches)
	}
	if sr.Stats.ShardsTotal != 2 || sr.Stats.ShardsAnswered != 1 {
		t.Fatalf("partial stats = %d/%d, want 1/2", sr.Stats.ShardsAnswered, sr.Stats.ShardsTotal)
	}
	var slowPS *search.ShardStats
	for i := range sr.Stats.PerShard {
		if sr.Stats.PerShard[i].Shard == "slow" {
			slowPS = &sr.Stats.PerShard[i]
		}
	}
	if slowPS == nil || slowPS.Answered || slowPS.Err == "" {
		t.Fatalf("slow shard not flagged in per-shard stats: %+v", sr.Stats.PerShard)
	}

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
	for _, want := range []string{
		"ndss_shard_partial_results_total 1",
		`ndss_shard_errors_total{shard="slow"} 1`,
		`ndss_shard_errors_total{shard="fast"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics after partial missing %q", want)
		}
	}
}

// TestShardedServerReloadRace races queries against coordinator
// hot-swaps through both reload paths — POST /admin/reload and the
// SIGHUP handler's srv.Reload() — while one shard's index directory is
// rebuilt under traffic. Zero requests may fail, every response must
// come from a fully-assembled coordinator (2/2 shards), and /healthz
// must only ever report a build id the server has actually served.
func TestShardedServerReloadRace(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 7, DupRate: 0.6, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	texts := make([][]uint32, c.NumTexts())
	for i := range texts {
		texts[i] = c.Text(uint32(i))
	}
	d0 := t.TempDir() + "/s0"
	d1 := t.TempDir() + "/s1"
	buildCorpusAt(t, corpus.New(texts[:20]), d0)
	buildCorpusAt(t, corpus.New(texts[20:]), d1)

	openCoord := func() (Backend, error) {
		e0, err := ndss.Open(d0)
		if err != nil {
			return nil, err
		}
		e1, err := ndss.Open(d1)
		if err != nil {
			e0.Close()
			return nil, err
		}
		return shard.NewCoordinator([]shard.ShardClient{
			shard.NewLocal("s0", e0), shard.NewLocal("s1", e1),
		}, shard.Config{})
	}
	backend, err := openCoord()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(backend, Config{MaxInFlight: 128, CacheEntries: -1, Reloader: openCoord})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	q := texts[25][:12]
	var (
		stop     atomic.Bool
		requests atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		observed = map[string]bool{}
	)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
				requests.Add(1)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search failed during reload: %d (%s)", resp.StatusCode, body)
					return
				}
				var sr wire.Response
				if err := json.Unmarshal(body, &sr); err != nil {
					t.Error(err)
					return
				}
				if sr.Stats.ShardsTotal != 2 || sr.Stats.ShardsAnswered != 2 {
					t.Errorf("mid-swap query saw a half-assembled coordinator: %d/%d shards",
						sr.Stats.ShardsAnswered, sr.Stats.ShardsTotal)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			id := healthzBuildID(t, ts)
			if !strings.HasPrefix(id, "sharded-2-") {
				t.Errorf("healthz reported build %q mid-swap", id)
				return
			}
			mu.Lock()
			observed[id] = true
			mu.Unlock()
		}
	}()

	// Build ids the server has legitimately served: the initial build
	// plus whatever each swap installed.
	valid := map[string]bool{backend.BuildID(): true}
	for i := 0; i < 4; i++ {
		if i == 2 {
			// Rebuild shard 1's directory under traffic, so later swaps
			// change the coordinator build id while the old engine still
			// serves the previous build.
			buildCorpusAt(t, corpus.New(texts[10:]), d1)
		}
		if i%2 == 0 {
			resp, body := postJSON(t, ts.Client(), ts.URL+"/admin/reload", struct{}{})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("reload %d: %d (%s)", i, resp.StatusCode, body)
			}
			var rr map[string]string
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
			valid[rr["build_id"]] = true
		} else {
			// The SIGHUP handler calls Reload directly.
			_, newID, err := srv.Reload()
			if err != nil {
				t.Fatalf("reload %d (signal path): %v", i, err)
			}
			valid[newID] = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if requests.Load() == 0 {
		t.Fatal("no requests observed")
	}
	// The rebuild changed the corpus, so the swap changed the build id.
	if len(valid) < 2 {
		t.Fatalf("reloads never changed the build id: %v", valid)
	}
	mu.Lock()
	defer mu.Unlock()
	for id := range observed {
		if !valid[id] {
			t.Errorf("healthz reported build %q, which no coordinator ever served (valid: %v)", id, valid)
		}
	}
	if id := healthzBuildID(t, ts); !valid[id] {
		t.Errorf("final healthz build %q not among served builds", id)
	}
}

// TestReplicaRetriesReadError: a replica whose index reads fail answers
// 500, a backend failure the replica set retries, so the leg moves to
// the healthy replica and the query answers 200.
func TestReplicaRetriesReadError(t *testing.T) {
	var q []uint32
	serve := func(wrap func(search.IndexReader) search.IndexReader) shard.ShardClient {
		t.Helper()
		var backend Backend
		backend, q = wrappedFixture(t, wrap)
		ts := httptest.NewServer(New(backend, Config{CacheEntries: -1}))
		t.Cleanup(ts.Close)
		hs, err := shard.NewHTTPShard(context.Background(), ts.URL, shard.HTTPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return hs
	}
	broken := serve(func(ix search.IndexReader) search.IndexReader { return failReader{IndexReader: ix} })
	healthy := serve(func(ix search.IndexReader) search.IndexReader { return ix })
	// Ties go to the lower index, so the broken replica is the primary.
	rs, err := shard.NewReplicaSet("rset", []shard.ShardClient{broken, healthy}, shard.ReplicaConfig{
		HedgeDelayMin: -1, BreakerFailures: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.NewCoordinator([]shard.ShardClient{rs}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ts := httptest.NewServer(New(coord, Config{CacheEntries: -1}))
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d (%s), want the read error retried on the healthy replica", resp.StatusCode, body)
	}
	var sr wire.Response
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Matches) == 0 {
		t.Error("retried query found no matches for a prefix of an indexed text")
	}
	if len(sr.Stats.PerShard) != 1 {
		t.Fatalf("per-shard stats = %+v, want one leg", sr.Stats.PerShard)
	}
	at := sr.Stats.PerShard[0].Attempts
	if len(at) != 2 || at[0].Replica != broken.Name() || !strings.Contains(at[0].Err, "500") ||
		at[1].Replica != healthy.Name() || at[1].Err != "" {
		t.Fatalf("attempts = %+v, want a failed 500 on the broken replica, then a retry that answered", at)
	}
}

// TestShardedInvalidQuery: a query every shard rejects as invalid is the
// client's mistake, not a backend failure, whether the shards run in
// process or behind HTTP.
func TestShardedInvalidQuery(t *testing.T) {
	_, local, q := shardedServerFixture(t, shard.Config{})
	var remotes []shard.ShardClient
	for i := 0; i < 2; i++ {
		backend, _ := wrappedFixture(t, func(ix search.IndexReader) search.IndexReader { return ix })
		rts := httptest.NewServer(New(backend, Config{}))
		t.Cleanup(rts.Close)
		hs, err := shard.NewHTTPShard(context.Background(), rts.URL, shard.HTTPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		remotes = append(remotes, hs)
	}
	coord, err := shard.NewCoordinator(remotes, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	remote := httptest.NewServer(New(coord, Config{}))
	defer remote.Close()

	for _, ts := range []*httptest.Server{local, remote} {
		for _, path := range []string{"/search", "/search/topk"} {
			resp, body := postJSON(t, ts.Client(), ts.URL+path, wire.Request{Tokens: q, Theta: 0.5, N: 3, MinLength: 3})
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "MinLength 3 below index length threshold 5") {
				t.Errorf("%s: %d (%s), want 400 naming the invalid MinLength", path, resp.StatusCode, body)
			}
		}
	}
}

// TestShardedReplicaMetricsExposition drives one query through a
// replica set whose primary fails transiently and checks the full
// observability surface: per-replica Prometheus families, replica
// attempts in the response stats and /debug/slowlog, and the slow-query
// log's retry/hedge attrs.
func TestShardedReplicaMetricsExposition(t *testing.T) {
	failing := newSlowShardBackend(t, false, 1)
	failing.err = &shard.RemoteError{Shard: "rep0", Status: 503, Msg: "draining"}
	good := newSlowShardBackend(t, false, 2)
	rs, err := shard.NewReplicaSet("rset", []shard.ShardClient{
		shard.NewLocal("rep0", failing), shard.NewLocal("rep1", good),
	}, shard.ReplicaConfig{
		HedgeDelayMin: -1, BreakerFailures: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.NewCoordinator([]shard.ShardClient{rs}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	var buf syncBuffer
	srv := New(coord, Config{
		CacheEntries:       -1,
		SlowQueryThreshold: time.Nanosecond, // every query is "slow"
		Logger:             slog.New(slog.NewTextHandler(&buf, nil)),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: []uint32{1, 2, 3}, Theta: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d (%s), the retry should have masked the failure", resp.StatusCode, body)
	}
	var sr wire.Response
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Stats.PerShard) != 1 || len(sr.Stats.PerShard[0].Attempts) != 2 {
		t.Fatalf("response attempts = %+v, want the failed primary plus the retry", sr.Stats.PerShard)
	}

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
	for _, want := range []string{
		`ndss_shard_replica_requests_total{shard="rset",replica="rep0"} 1`,
		`ndss_shard_replica_requests_total{shard="rset",replica="rep1"} 1`,
		`ndss_shard_replica_errors_total{shard="rset",replica="rep0"} 1`,
		`ndss_shard_replica_errors_total{shard="rset",replica="rep1"} 0`,
		`ndss_shard_retries_total{shard="rset",replica="rep1"} 1`,
		`ndss_shard_hedges_total{shard="rset",replica="rep0"} 0`,
		`ndss_shard_breaker_state{shard="rset",replica="rep0"} 0`,
		`ndss_shard_replica_quarantined{shard="rset",replica="rep0"} 0`,
		`ndss_shard_hedge_wins_total{shard="rset"} 0`,
		// The trace families ride in the same scrape: with a 1ns slow
		// threshold and one masked retry, the single query is retained
		// for both reasons, head sampling stays off, and nothing has
		// been evicted from the bounded store.
		"ndss_trace_sampled_requests_total 0",
		`ndss_trace_retained_total{reason="slow"} 1`,
		`ndss_trace_retained_total{reason="retried"} 1`,
		`ndss_trace_retained_total{reason="sampled"} 0`,
		`ndss_trace_retained_total{reason="hedged"} 0`,
		"ndss_trace_store_entries 1",
		"ndss_trace_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The whole exposition, new families included, stays format-clean.
	parsePromExposition(t, text)

	// The slow-query log attributes the retry.
	logged := buf.String()
	if !strings.Contains(logged, "shard_retries=1") || !strings.Contains(logged, "shard_hedges=0") {
		t.Errorf("slow-query log lacks retry attribution: %q", logged)
	}

	// The flight recorder carries the per-attempt replica breakdown.
	slresp, err := ts.Client().Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer slresp.Body.Close()
	slraw, err := io.ReadAll(slresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(slraw), `"replica":"rep1"`) {
		t.Errorf("/debug/slowlog entry lacks replica attempts: %s", slraw)
	}
}
