package shard_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ndss"
	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
	"ndss/internal/server"
	"ndss/internal/shard"
)

// The cross-shard determinism suite: a corpus split into four doc-range
// shards — two in-process, two remote over real HTTP servers — must
// answer every query byte-identically to one merged index over the same
// texts, including top-k tie order, with full per-shard attribution in
// Stats.

var buildOpts = index.BuildOptions{K: 8, Seed: 21, T: 5, ZoneMapStep: 4, LongListCutoff: 8}

// fixtureTexts synthesizes a corpus with planted near-duplicates spread
// across what will become all four shards.
func fixtureTexts(t testing.TB) [][]uint32 {
	t.Helper()
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 48, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 7, DupRate: 0.6, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	texts := make([][]uint32, c.NumTexts())
	for i := range texts {
		texts[i] = c.Text(uint32(i))
	}
	return texts
}

// buildEngine builds an index over texts in a fresh directory and opens
// it with the texts attached (so Verify works).
func buildEngine(t testing.TB, texts [][]uint32) *ndss.DB {
	t.Helper()
	c := corpus.New(texts)
	dir := t.TempDir()
	if _, err := index.Build(c, dir, buildOpts); err != nil {
		t.Fatal(err)
	}
	e, err := ndss.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(c); err != nil {
		t.Fatal(err)
	}
	return e
}

type shardFixture struct {
	texts  [][]uint32
	single *ndss.DB
	coord  *shard.Coordinator
}

// newShardFixture splits the corpus into four consecutive doc-range
// chunks served as two Local shards plus two HTTPShards over real
// ndss-serve instances, and builds the single merged reference index.
func newShardFixture(t *testing.T, cfg shard.Config) *shardFixture {
	t.Helper()
	texts := fixtureTexts(t)
	single := buildEngine(t, texts)
	t.Cleanup(func() { single.Close() })

	const numShards = 4
	per := len(texts) / numShards
	clients := make([]shard.ShardClient, 0, numShards)
	for i := 0; i < numShards; i++ {
		chunk := texts[i*per : (i+1)*per]
		e := buildEngine(t, chunk)
		if i < 2 {
			clients = append(clients, shard.NewLocal(t.TempDir(), e))
			continue
		}
		// Remote shards: a real server.Server over the shard's engine,
		// spoken to through the HTTP transport.
		ts := httptest.NewServer(server.New(e, server.Config{}))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { e.Close() })
		hs, err := shard.NewHTTPShard(context.Background(), ts.URL, shard.HTTPOptions{Client: ts.Client()})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, hs)
	}
	coord, err := shard.NewCoordinator(clients, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return &shardFixture{texts: texts, single: single, coord: coord}
}

// queries returns probe queries planted in each shard's doc range plus
// one longer span.
func (f *shardFixture) queries() [][]uint32 {
	return [][]uint32{
		f.texts[0][:12],
		f.texts[13][:12],
		f.texts[30][:12],
		f.texts[45][:12],
		f.texts[5][:30],
	}
}

// sameMatches compares result slices treating nil and empty as equal
// (the coordinator always returns a non-nil slice).
func sameMatches(got, want []search.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

func TestCoordinatorSearchMatchesSingleIndex(t *testing.T) {
	f := newShardFixture(t, shard.Config{})
	optsList := []search.Options{
		{Theta: 0.5},
		{Theta: 0.5, PrefixFilter: true},
		{Theta: 0.8, Verify: true},
	}
	ctx := context.Background()
	totalMatches := 0
	shardsHit := map[int]bool{}
	for qi, q := range f.queries() {
		for oi, opts := range optsList {
			want, _, err := f.single.SearchContext(ctx, q, opts)
			if err != nil {
				t.Fatalf("query %d opts %d: single: %v", qi, oi, err)
			}
			got, st, err := f.coord.SearchContext(ctx, q, opts)
			if err != nil {
				t.Fatalf("query %d opts %d: coordinator: %v", qi, oi, err)
			}
			if !sameMatches(got, want) {
				t.Errorf("query %d opts %d: sharded result diverges:\n got %+v\nwant %+v", qi, oi, got, want)
			}
			if st.ShardsTotal != 4 || st.ShardsAnswered != 4 || st.Partial() {
				t.Errorf("query %d opts %d: stats %d/%d answered, partial=%v; want 4/4 full",
					qi, oi, st.ShardsAnswered, st.ShardsTotal, st.Partial())
			}
			if len(st.PerShard) != 4 {
				t.Fatalf("query %d opts %d: PerShard has %d entries", qi, oi, len(st.PerShard))
			}
			perShardMatches := 0
			for _, ps := range st.PerShard {
				if !ps.Answered || ps.Err != "" {
					t.Errorf("query %d opts %d: shard %s flagged: %+v", qi, oi, ps.Shard, ps)
				}
				perShardMatches += ps.Matches
			}
			if perShardMatches != len(got) {
				t.Errorf("query %d opts %d: per-shard match counts sum to %d, result has %d",
					qi, oi, perShardMatches, len(got))
			}
			totalMatches += len(got)
			for _, m := range got {
				shardsHit[int(m.TextID)/12] = true
			}
		}
	}
	// Guard against a vacuous pass: the planted duplicates must produce
	// matches landing in several shards' doc ranges.
	if totalMatches == 0 {
		t.Fatal("no query produced matches; fixture is vacuous")
	}
	if len(shardsHit) < 2 {
		t.Fatalf("matches only landed in shards %v; need cross-shard coverage", shardsHit)
	}
}

func TestCoordinatorTopKMatchesSingleIndex(t *testing.T) {
	f := newShardFixture(t, shard.Config{})
	ctx := context.Background()
	sawTie := false
	for qi, q := range f.queries() {
		for _, n := range []int{1, 3, 8, 100} {
			opts := search.TopKOptions{N: n, FloorTheta: 0.5}
			want, _, err := f.single.SearchTopKContext(ctx, q, opts)
			if err != nil {
				t.Fatalf("query %d n=%d: single: %v", qi, n, err)
			}
			got, st, err := f.coord.SearchTopKContext(ctx, q, opts)
			if err != nil {
				t.Fatalf("query %d n=%d: coordinator: %v", qi, n, err)
			}
			if !sameMatches(got, want) {
				t.Errorf("query %d n=%d: sharded top-k diverges:\n got %+v\nwant %+v", qi, n, got, want)
			}
			if st.ShardsAnswered != 4 {
				t.Errorf("query %d n=%d: %d/4 shards answered", qi, n, st.ShardsAnswered)
			}
			for i := 1; i < len(want); i++ {
				if want[i].Collisions == want[i-1].Collisions {
					sawTie = true
				}
			}
		}
	}
	if !sawTie {
		t.Log("warning: no collision ties observed; tie order exercised only by fault_test stubs")
	}
}

func TestCoordinatorExplain(t *testing.T) {
	f := newShardFixture(t, shard.Config{})
	q := f.queries()[0]
	opts := search.Options{Theta: 0.5, PrefixFilter: true}
	want, err := f.single.Explain(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.coord.Explain(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Plans come from one shard, whose list lengths differ from the
	// merged index; only the sketch-derived parameters must agree.
	if got.Beta != want.Beta || got.Alpha != want.Alpha {
		t.Fatalf("plan beta/alpha = %d/%d, single index has %d/%d", got.Beta, got.Alpha, want.Beta, want.Alpha)
	}
}

func TestCoordinatorAggregates(t *testing.T) {
	f := newShardFixture(t, shard.Config{})
	m := f.coord.Meta()
	sm := f.single.Meta()
	if m.NumTexts != sm.NumTexts || m.TotalTokens != sm.TotalTokens {
		t.Errorf("aggregate meta %d texts/%d tokens, merged index has %d/%d",
			m.NumTexts, m.TotalTokens, sm.NumTexts, sm.TotalTokens)
	}
	if m.K != sm.K || m.Seed != sm.Seed || m.T != sm.T {
		t.Errorf("aggregate meta K/Seed/T = %d/%d/%d, want %d/%d/%d", m.K, m.Seed, m.T, sm.K, sm.Seed, sm.T)
	}
	if id := f.coord.BuildID(); !strings.HasPrefix(id, "sharded-4-") {
		t.Errorf("BuildID = %q, want sharded-4-* for a 4-shard set", id)
	}
	if names := f.coord.Shards(); len(names) != 4 {
		t.Errorf("Shards() = %v, want 4 entries", names)
	}
	if err := f.coord.CheckHealth(context.Background()); err != nil {
		t.Errorf("CheckHealth on healthy shards: %v", err)
	}
	met := f.coord.ShardMetrics()
	if len(met.Shards) != 4 {
		t.Fatalf("ShardMetrics has %d shards", len(met.Shards))
	}
	for _, s := range met.Shards {
		if s.BuildID == "" {
			t.Errorf("shard %s reports no build id", s.Shard)
		}
	}
}

func TestMixedShardsRejected(t *testing.T) {
	texts := fixtureTexts(t)
	a := buildEngine(t, texts[:12])
	t.Cleanup(func() { a.Close() })
	// A shard built with a different seed sketches incompatibly.
	c := corpus.New(texts[12:24])
	dir := t.TempDir()
	other := buildOpts
	other.Seed = buildOpts.Seed + 1
	if _, err := index.Build(c, dir, other); err != nil {
		t.Fatal(err)
	}
	b, err := ndss.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	_, err = shard.NewCoordinator([]shard.ShardClient{
		shard.NewLocal("a", a), shard.NewLocal("b", b),
	}, shard.Config{})
	var mixed *shard.MixedShardsError
	if !errors.As(err, &mixed) {
		t.Fatalf("mixed shard set: err = %v, want *MixedShardsError", err)
	}
	if mixed.Shard != "b" {
		t.Errorf("MixedShardsError names %q, want the disagreeing shard b", mixed.Shard)
	}
}

func TestHTTPShardHealth(t *testing.T) {
	texts := fixtureTexts(t)
	e := buildEngine(t, texts[:12])
	t.Cleanup(func() { e.Close() })
	srv := server.New(e, server.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	hs, err := shard.NewHTTPShard(context.Background(), ts.URL, shard.HTTPOptions{Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	if hs.Meta().K != buildOpts.K || hs.Meta().NumTexts != 12 {
		t.Fatalf("HTTPShard learned meta %+v from /healthz", hs.Meta())
	}
	if hs.BuildID() == "" {
		t.Fatal("HTTPShard learned no build id")
	}

	// A draining remote (healthz 503) is unhealthy and the failure is
	// transient: the coordinator may keep it in rotation.
	srv.BeginShutdown()
	err = hs.CheckHealth(context.Background())
	var re *shard.RemoteError
	if !errors.As(err, &re) || re.Status != 503 {
		t.Fatalf("health of draining shard: %v, want RemoteError 503", err)
	}
	if !re.Transient() {
		t.Error("503 from a draining shard should be transient")
	}
}

func TestCoordinatorOptionValidation(t *testing.T) {
	f := newShardFixture(t, shard.Config{})
	q := f.queries()[0]
	ctx := context.Background()
	if _, _, err := f.coord.SearchContext(ctx, q, search.Options{Theta: 0.5, KeepRects: true}); err == nil {
		t.Error("KeepRects through a coordinator should be rejected")
	}
	if _, _, err := f.coord.SearchTopKContext(ctx, q, search.TopKOptions{N: 0, FloorTheta: 0.5}); err == nil {
		t.Error("top-k with N=0 should be rejected")
	}
	// Shard-side validation errors surface, not hang: theta out of range.
	if _, _, err := f.coord.SearchContext(ctx, q, search.Options{Theta: 1.5}); err == nil {
		t.Error("invalid theta should surface from the shards")
	}
}
