package search

import (
	"math/rand"
	"path/filepath"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/index"
)

// benchFixture builds an index shaped like the repo benchmark's (K=32,
// T=25, Zipf 1.07 over a 32000-token vocabulary) and returns a warmed
// Searcher with one 64-token query that has a planted match and one
// drawn from an unrelated corpus.
func benchFixture(tb testing.TB) (s *Searcher, hit, miss []uint32, opts Options) {
	tb.Helper()
	cfg := corpus.SynthConfig{
		NumTexts: 300, MinLength: 100, MaxLength: 700, VocabSize: 32000,
		ZipfS: 1.07, Seed: 1, DupRate: 0.15, DupSnippetLen: 64, DupMutateProb: 0.05,
	}
	c := corpus.MustSynthesize(cfg)
	dir := tb.TempDir()
	if _, err := index.Build(c, dir, index.BuildOptions{K: 32, Seed: 1, T: 25}); err != nil {
		tb.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ix.Close() })
	cfg.Seed, cfg.NumTexts = 2, 1
	hit, miss = c.Text(7)[20:84], corpus.MustSynthesize(cfg).Text(0)[:64]
	opts = Options{Theta: 0.8, PrefixFilter: true}
	s = New(ix, nil)
	for i := 0; i < 3; i++ { // warm the context pool and the read buffers
		if ms, _, err := s.Search(hit, opts); err != nil || len(ms) == 0 {
			tb.Fatalf("hit query: %d matches, err %v", len(ms), err)
		}
		if ms, _, err := s.Search(miss, opts); err != nil || len(ms) != 0 {
			tb.Fatalf("miss query: %d matches, err %v", len(ms), err)
		}
	}
	return s, hit, miss, opts
}

// benchSearch times q and reports, beside ns and allocs, the lists the
// plan defers and the bytes one query reads.
func benchSearch(b *testing.B, s *Searcher, q []uint32, opts Options) {
	b.ReportAllocs()
	b.ResetTimer()
	var st *Stats
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = s.Search(q, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.LongLists), "long/op")
	b.ReportMetric(float64(st.IOBytes), "read-B/op")
}

func BenchmarkSearchHit(b *testing.B) {
	s, hit, _, opts := benchFixture(b)
	benchSearch(b, s, hit, opts)
}

func BenchmarkSearchMiss(b *testing.B) {
	s, _, miss, opts := benchFixture(b)
	benchSearch(b, s, miss, opts)
}

// segmentedBenchIndex builds an index shaped like ingest-churn's between
// two compactions — a base of baseTexts benchmark-shaped texts plus eight
// 16-text appends, K=32, T=25 — and returns it opened, with the base
// corpus.
func segmentedBenchIndex(b *testing.B, baseTexts int) (*index.Index, *corpus.Corpus) {
	b.Helper()
	cfg := corpus.SynthConfig{
		NumTexts: baseTexts, MinLength: 100, MaxLength: 700, VocabSize: 32000,
		ZipfS: 1.07, Seed: 1, DupRate: 0.15, DupSnippetLen: 64, DupMutateProb: 0.05,
	}
	c := corpus.MustSynthesize(cfg)
	dir := filepath.Join(b.TempDir(), "ix")
	if _, err := index.Build(c, dir, index.BuildOptions{K: 32, Seed: 1, T: 25}); err != nil {
		b.Fatal(err)
	}
	for seg := 0; seg < 8; seg++ {
		cfg.NumTexts, cfg.Seed = 16, int64(2+seg)
		if _, err := index.Append(dir, corpus.MustSynthesize(cfg)); err != nil {
			b.Fatal(err)
		}
	}
	ix, err := index.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	return ix, c
}

// BenchmarkFirstQueryAfterAppend times what an ingest-churn client waits
// for after every reload: the first query of a fresh Searcher over a
// nine-segment index (a 300-text base plus eight 16-text appends),
// everything it computes lazily included.
func BenchmarkFirstQueryAfterAppend(b *testing.B) {
	ix, c := segmentedBenchIndex(b, 300)
	hit, opts := c.Text(7)[20:84], Options{Theta: 0.8, PrefixFilter: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms, _, err := New(ix, nil).Search(hit, opts); err != nil || len(ms) == 0 {
			b.Fatalf("hit query: %d matches, err %v", len(ms), err)
		}
	}
}

// BenchmarkSearchSegmented is BenchmarkSearchHit/Miss on ingest-churn's
// segmented index (a 1000-text base plus eight 16-text appends): the
// prefix filter there defers the base's zone-mapped lists and probes the
// small appended portions whole.
func BenchmarkSearchSegmented(b *testing.B) {
	ix, c := segmentedBenchIndex(b, 1000)
	unrelated := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 1, MinLength: 100, MaxLength: 700, VocabSize: 32000, ZipfS: 1.07, Seed: 100,
	})
	hit, miss := c.Text(7)[20:84], unrelated.Text(0)[:64]
	opts := Options{Theta: 0.8, PrefixFilter: true}
	s := New(ix, nil)
	for i := 0; i < 3; i++ { // warm the context pool and the read buffers
		if ms, _, err := s.Search(hit, opts); err != nil || len(ms) == 0 {
			b.Fatalf("hit query: %d matches, err %v", len(ms), err)
		}
		if ms, _, err := s.Search(miss, opts); err != nil || len(ms) != 0 {
			b.Fatalf("miss query: %d matches, err %v", len(ms), err)
		}
	}
	b.Run("Hit", func(b *testing.B) { benchSearch(b, s, hit, opts) })
	b.Run("Miss", func(b *testing.B) { benchSearch(b, s, miss, opts) })
}

// TestSearchSteadyStateAllocs guards the pooled query context: on a
// warmed Searcher a query allocates its Stats, its results and little
// else.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops contexts at random under the race detector")
	}
	s, hit, miss, opts := benchFixture(t)
	for _, tc := range []struct {
		name  string
		query []uint32
		max   float64
	}{{"miss", miss, 6}, {"hit", hit, 12}} {
		got := testing.AllocsPerRun(50, func() {
			if _, _, err := s.Search(tc.query, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s query allocates %v objects, want <= %v", tc.name, got, tc.max)
		}
	}
}

// benchWindows draws one text's worth of compact windows from n lists,
// crowded enough that the kernels report overlaps.
func benchWindows(n int) []index.Posting {
	rng := rand.New(rand.NewSource(5))
	ws := make([]index.Posting, n)
	for i := range ws {
		l := uint32(rng.Intn(16))
		c := l + uint32(rng.Intn(16))
		ws[i] = index.Posting{L: l, C: c, R: c + uint32(rng.Intn(64))}
	}
	return ws
}

func BenchmarkIntervalScan(b *testing.B) {
	var ivs []Interval
	for _, w := range benchWindows(32) {
		ivs = append(ivs, Interval{Lo: int32(w.L), Hi: int32(w.C)})
	}
	var sc scanScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(sc.scan(ivs, 8)) == 0 {
			b.Fatal("no overlaps")
		}
	}
}

func BenchmarkCollisionCount(b *testing.B) {
	ws := benchWindows(32)
	var cs countScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(cs.count(ws, 8)) == 0 {
			b.Fatal("no rectangles")
		}
	}
}
