package search

import (
	"cmp"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
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
// plan defers and the bytes one query reads, and when fsys (which the
// index was opened through) is non-nil the reads it issues.
func benchSearch(b *testing.B, s *Searcher, q []uint32, opts Options, fsys *ReadCountFS) {
	b.ReportAllocs()
	b.ResetTimer()
	var st *Stats
	var before int64
	if fsys != nil {
		before = fsys.Total()
	}
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = s.Search(q, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.LongLists), "long/op")
	b.ReportMetric(float64(st.IOBytes), "read-B/op")
	if fsys != nil {
		b.ReportMetric(float64(fsys.Total()-before)/float64(b.N), "reads/op")
	}
}

func BenchmarkSearchHit(b *testing.B) {
	s, hit, _, opts := benchFixture(b)
	benchSearch(b, s, hit, opts, nil)
}

func BenchmarkSearchMiss(b *testing.B) {
	s, _, miss, opts := benchFixture(b)
	benchSearch(b, s, miss, opts, nil)
}

// segmentedBenchIndex builds an index shaped like ingest-churn's between
// two compactions — a base of baseTexts benchmark-shaped texts plus eight
// 16-text appends, K=32, T=25 — and returns it opened, with the base
// corpus and the filesystem it reads through, which counts the reads.
func segmentedBenchIndex(b *testing.B, baseTexts int) (*index.Index, *corpus.Corpus, *ReadCountFS) {
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
	fsys := &ReadCountFS{FS: fsio.OS}
	ix, err := index.OpenFS(fsys, dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	return ix, c, fsys
}

// BenchmarkFirstQueryAfterAppend times what an ingest-churn client waits
// for after every reload: the first query of a fresh Searcher over a
// nine-segment index (a 300-text base plus eight 16-text appends),
// everything it computes lazily included. Its query context comes from
// the pool every Searcher shares, warm, as after a server reload.
func BenchmarkFirstQueryAfterAppend(b *testing.B) {
	ix, c, fsys := segmentedBenchIndex(b, 300)
	hit, opts := c.Text(7)[20:84], Options{Theta: 0.8, PrefixFilter: true}
	b.ReportAllocs()
	b.ResetTimer()
	before := fsys.Total()
	var st *Stats
	for i := 0; i < b.N; i++ {
		var ms []Match
		var err error
		if ms, st, err = New(ix, nil).Search(hit, opts); err != nil || len(ms) == 0 {
			b.Fatalf("hit query: %d matches, err %v", len(ms), err)
		}
	}
	b.ReportMetric(float64(st.IOBytes), "read-B/op")
	b.ReportMetric(float64(fsys.Total()-before)/float64(b.N), "reads/op")
}

// BenchmarkSearchSegmented is BenchmarkSearchHit/Miss on ingest-churn's
// segmented index (a 1000-text base plus eight 16-text appends): the
// prefix filter there defers the base's zone-mapped lists and probes the
// small appended portions whole.
func BenchmarkSearchSegmented(b *testing.B) {
	ix, c, fsys := segmentedBenchIndex(b, 1000)
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
	b.Run("Hit", func(b *testing.B) { benchSearch(b, s, hit, opts, fsys) })
	b.Run("Miss", func(b *testing.B) { benchSearch(b, s, miss, opts, fsys) })
}

// errListRead is failingReader's one error value, so failing a read
// allocates nothing.
var errListRead = errors.New("simulated list read failure")

// failingReader fails every list read: a query against it errors
// out of the gather stage, after its context was taken from the pool.
type failingReader struct {
	IndexReader
}

func (failingReader) ReadRowsInto([]index.Posting, *index.Rows, int, uint32, uint32, *index.IOStats) ([]index.Posting, error) {
	return nil, errListRead
}

// TestSearchSteadyStateAllocs guards the pooled query context: on a
// warmed Searcher a query allocates its Stats, its results and little
// else. The failing case holds a query that errors after acquireCtx to
// the same bound, so a context not returned to the pool on an error
// path (a fresh context and its scratch every query) fails it.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops contexts at random under the race detector")
	}
	s, hit, miss, opts := benchFixture(t)
	failing := New(failingReader{s.ix}, nil)
	for _, tc := range []struct {
		name    string
		s       *Searcher
		query   []uint32
		opts    Options
		max     float64
		wantErr error
	}{
		{"miss", s, miss, opts, 6, nil},
		{"hit", s, hit, opts, 12, nil},
		{"failing", failing, hit, opts, 2, errListRead},
	} {
		got := testing.AllocsPerRun(50, func() {
			if _, _, err := tc.s.Search(tc.query, tc.opts); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
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

// queryLists reads the k inverted lists q's sketch selects.
func queryLists(tb testing.TB, ix *index.Index, q []uint32) [][]index.Posting {
	tb.Helper()
	sketch, err := ix.Family().Sketch(q)
	if err != nil {
		tb.Fatal(err)
	}
	lists := make([][]index.Posting, len(sketch))
	for fn, h := range sketch {
		if lists[fn], err = ix.ReadListInto(nil, fn, h, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return lists
}

// textWindows gathers text id's windows from the lists skip does not
// mark, in function order.
func textWindows(lists [][]index.Posting, id uint32, skip []bool) []index.Posting {
	var ws []index.Posting
	for fn, l := range lists {
		if skip != nil && skip[fn] {
			continue
		}
		for _, w := range l {
			if w.TextID == id {
				ws = append(ws, w)
			}
		}
	}
	return ws
}

// largestGroups returns the windows of the n texts holding the most
// postings of lists, if they hold at least least: the groups the kernel
// replay of benchmark/replay.go feeds CollisionCount.
func largestGroups(lists [][]index.Posting, n, least int) [][]index.Posting {
	perText := map[uint32]int{}
	for _, l := range lists {
		for _, w := range l {
			perText[w.TextID]++
		}
	}
	var ids []uint32
	for id, c := range perText {
		if c >= least {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b uint32) int {
		if perText[a] != perText[b] {
			return perText[b] - perText[a]
		}
		return cmp.Compare(a, b)
	})
	var groups [][]index.Posting
	for _, id := range ids[:min(n, len(ids))] {
		groups = append(groups, textWindows(lists, id, nil))
	}
	return groups
}

// longTextWindows indexes one 20000-token benchmark-shaped text, whose
// most frequent tokens recur hundreds of times, and returns the windows
// that its 64-token slice with the most of them collects over all k
// lists: the largest group one text hands the kernel.
func longTextWindows(b *testing.B) []index.Posting {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 1, MinLength: 20000, MaxLength: 20000, VocabSize: 32000, ZipfS: 1.07, Seed: 3,
	})
	dir := b.TempDir()
	if _, err := index.Build(c, dir, index.BuildOptions{K: 32, Seed: 1, T: 25}); err != nil {
		b.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	var most []index.Posting
	for start := 0; start+64 <= len(c.Text(0)); start += 500 {
		if ws := textWindows(queryLists(b, ix, c.Text(0)[start:start+64]), 0, nil); len(ws) > len(most) {
			most = ws
		}
	}
	return most
}

// BenchmarkCollisionCount times the count kernel on the window groups
// queries hand it, per group and per window: the planted text of
// benchFixture's hit query at the plan's alpha (its short lists) and at
// beta (all k lists, as after the probes), the kernel replay's groups
// over the hit and miss queries at alpha 4, the long text's group at
// alpha 4, and a random crowded group.
func BenchmarkCollisionCount(b *testing.B) {
	s, hit, miss, opts := benchFixture(b)
	ix := s.ix.(*index.Index)
	plan, err := s.Explain(hit, opts)
	if err != nil {
		b.Fatal(err)
	}
	hitLists := queryLists(b, ix, hit)
	const planted = 7 // benchFixture cuts hit from text 7
	for _, tc := range []struct {
		name   string
		groups [][]index.Posting
		alpha  int
	}{
		{"hit-alpha", [][]index.Posting{textWindows(hitLists, planted, plan.Long)}, plan.Alpha},
		{"hit-beta", [][]index.Posting{textWindows(hitLists, planted, nil)}, plan.Beta},
		{"replay", append(largestGroups(hitLists, 16, 4), largestGroups(queryLists(b, ix, miss), 16, 4)...), 4},
		{"long", [][]index.Posting{longTextWindows(b)}, 4},
		{"random", [][]index.Posting{benchWindows(32)}, 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var cs countScratch
			windows, rects := 0, 0
			for _, g := range tc.groups {
				windows += len(g)
				rects += len(cs.count(g, tc.alpha))
			}
			if rects == 0 {
				b.Fatal("no rectangles")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, g := range tc.groups {
					cs.count(g, tc.alpha)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
			b.ReportMetric(float64(windows)/float64(len(tc.groups)), "windows/group")
			b.ReportMetric(float64(rects)/float64(len(tc.groups)), "rects/group")
		})
	}
}
