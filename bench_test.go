package ndss

// One benchmark per paper table/figure (see DESIGN.md's per-experiment
// index). These are the testing.B counterparts of cmd/ndss-bench: small
// fixed workloads whose custom metrics (windows, bytes, matches) mirror
// the series each figure plots. Full parameter sweeps live in
// cmd/ndss-bench.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ndss/internal/baseline"
	"ndss/internal/corpus"
	"ndss/internal/experiments"
	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/lm"
	"ndss/internal/memorize"
	"ndss/internal/search"
	"ndss/internal/window"
)

// benchCorpus returns a shared web-like corpus (built once).
var benchCorpus = sync.OnceValue(func() *corpus.Corpus {
	return corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts:      300,
		MinLength:     100,
		MaxLength:     700,
		VocabSize:     32000,
		ZipfS:         1.07,
		Seed:          1,
		DupRate:       0.15,
		DupSnippetLen: 64,
		DupMutateProb: 0.05,
	})
})

// benchIndexes caches one opened index per (k, t) so query benchmarks
// don't pay the build repeatedly.
var (
	benchIdxMu sync.Mutex
	benchIdx   = map[string]*index.Index{}
)

func benchIndexFor(b *testing.B, k, t int) *index.Index {
	b.Helper()
	key := fmt.Sprintf("k%d-t%d", k, t)
	benchIdxMu.Lock()
	defer benchIdxMu.Unlock()
	if ix, ok := benchIdx[key]; ok {
		return ix
	}
	dir, err := os.MkdirTemp("", "ndss-bench-idx-*")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := index.Build(benchCorpus(), dir, index.BuildOptions{K: k, Seed: 3, T: t}); err != nil {
		b.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	benchIdx[key] = ix
	return ix
}

func benchQueries(n, length int, seed int64) [][]uint32 {
	c := benchCorpus()
	rng := rand.New(rand.NewSource(seed))
	queries := make([][]uint32, 0, n)
	for len(queries) < n {
		if q, _, _, ok := corpus.PlantQuery(c, length, 0.1, 32000, rng); ok {
			queries = append(queries, q)
		}
	}
	return queries
}

// BenchmarkFig2_WindowsVsThreshold measures compact-window generation
// across length thresholds (Fig 2(a-b)); windows/op is the figure's
// y-axis.
func BenchmarkFig2_WindowsVsThreshold(b *testing.B) {
	c := benchCorpus()
	fam := hash.MustNewFamily(1, 7)
	for _, t := range []int{25, 50, 100, 200} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			var vals []uint64
			var s window.Scratch
			var ws []window.Window
			var windows int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				windows = 0
				for id := 0; id < c.NumTexts(); id++ {
					vals = window.Hashes(c.Text(uint32(id)), fam.Func(0), vals)
					ws = s.Generate(vals, t, ws[:0])
					windows += int64(len(ws))
				}
			}
			b.ReportMetric(float64(windows), "windows")
		})
	}
}

// BenchmarkFig2_WindowsVsCorpusSize shows linear window scaling with
// corpus size (Fig 2(c-d)).
func BenchmarkFig2_WindowsVsCorpusSize(b *testing.B) {
	fam := hash.MustNewFamily(1, 7)
	for _, mult := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("size=%dx", mult), func(b *testing.B) {
			c := corpus.MustSynthesize(corpus.SynthConfig{
				NumTexts: 100 * mult, MinLength: 100, MaxLength: 700,
				VocabSize: 32000, ZipfS: 1.07, Seed: 2,
			})
			var vals []uint64
			var s window.Scratch
			var ws []window.Window
			var windows int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				windows = 0
				for id := 0; id < c.NumTexts(); id++ {
					vals = window.Hashes(c.Text(uint32(id)), fam.Func(0), vals)
					ws = s.Generate(vals, 100, ws[:0])
					windows += int64(len(ws))
				}
			}
			b.ReportMetric(float64(windows), "windows")
		})
	}
}

// BenchmarkFig2_IndexSize builds full indexes and reports bytes on disk
// (Fig 2(e-h)).
func BenchmarkFig2_IndexSize(b *testing.B) {
	c := benchCorpus()
	for _, t := range []int{50, 100} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			var size int64
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				stats, err := index.Build(c, dir, index.BuildOptions{K: 1, Seed: 3, T: t})
				if err != nil {
					b.Fatal(err)
				}
				size = stats.BytesWritten
			}
			b.ReportMetric(float64(size), "index-bytes")
		})
	}
}

// BenchmarkFig2_IndexTime measures full index builds (Fig 2(i-l)); the
// gen/io split is reported as metrics.
func BenchmarkFig2_IndexTime(b *testing.B) {
	c := benchCorpus()
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var gen, io float64
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				stats, err := index.Build(c, dir, index.BuildOptions{K: k, Seed: 3, T: 50})
				if err != nil {
					b.Fatal(err)
				}
				gen = float64(stats.GenTime.Microseconds())
				io = float64(stats.IOTime.Microseconds())
			}
			b.ReportMetric(gen, "gen-us")
			b.ReportMetric(io, "io-us")
		})
	}
}

// BenchmarkFig3_QueryVsTheta measures per-query latency across
// similarity thresholds (Fig 3(a-b)).
func BenchmarkFig3_QueryVsTheta(b *testing.B) {
	ix := benchIndexFor(b, 32, 25)
	s := search.New(ix, benchCorpus())
	queries := benchQueries(32, 64, 5)
	for _, theta := range []float64{0.7, 0.8, 0.9, 1.0} {
		b.Run(fmt.Sprintf("theta=%.1f", theta), func(b *testing.B) {
			matches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, _, err := s.Search(queries[i%len(queries)], search.Options{Theta: theta, PrefixFilter: true})
				if err != nil {
					b.Fatal(err)
				}
				matches += len(ms)
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
		})
	}
}

// BenchmarkFig3_QueryVsCorpusSize shows latency scaling with corpus
// size (Fig 3(c)).
func BenchmarkFig3_QueryVsCorpusSize(b *testing.B) {
	for _, mult := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("size=%dx", mult), func(b *testing.B) {
			c := corpus.MustSynthesize(corpus.SynthConfig{
				NumTexts: 100 * mult, MinLength: 100, MaxLength: 700,
				VocabSize: 32000, ZipfS: 1.07, Seed: 2,
				DupRate: 0.15, DupSnippetLen: 64, DupMutateProb: 0.05,
			})
			dir := b.TempDir()
			if _, err := index.Build(c, dir, index.BuildOptions{K: 32, Seed: 3, T: 25}); err != nil {
				b.Fatal(err)
			}
			ix, err := index.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			s := search.New(ix, c)
			rng := rand.New(rand.NewSource(4))
			var queries [][]uint32
			for len(queries) < 16 {
				if q, _, _, ok := corpus.PlantQuery(c, 64, 0.1, 32000, rng); ok {
					queries = append(queries, q)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Search(queries[i%len(queries)], search.Options{Theta: 0.8, PrefixFilter: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3_PrefixLength sweeps the share of lists deferred as long
// (Fig 3(d)): one index per share, built with LongListCutoff at that
// share's list-length quantile. long/op is the mean number of deferred
// lists.
func BenchmarkFig3_PrefixLength(b *testing.B) {
	base := benchIndexFor(b, 32, 25)
	queries := benchQueries(32, 64, 6)
	for _, frac := range []float64{0.05, 0.10, 0.20} {
		dir := b.TempDir()
		if _, err := index.Build(benchCorpus(), dir, index.BuildOptions{
			K: 32, Seed: 3, T: 25,
			ZoneMapStep: experiments.PrefixZoneStep, LongListCutoff: experiments.TopFractionCutoff(base, frac),
		}); err != nil {
			b.Fatal(err)
		}
		ix, err := index.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s := search.New(ix, benchCorpus())
		b.Run(fmt.Sprintf("prefix=%.0f%%", frac*100), func(b *testing.B) {
			long := 0
			for i := 0; i < b.N; i++ {
				_, st, err := s.Search(queries[i%len(queries)], search.Options{Theta: 0.8, PrefixFilter: true})
				if err != nil {
					b.Fatal(err)
				}
				long += st.LongLists
			}
			b.ReportMetric(float64(long)/float64(b.N), "long/op")
		})
		ix.Close()
	}
}

// BenchmarkFig3_QueryExternal queries an index built with the
// out-of-core builder (Fig 3(e-f)).
func BenchmarkFig3_QueryExternal(b *testing.B) {
	c := benchCorpus()
	dir := b.TempDir()
	corpusPath := filepath.Join(dir, "c.tok")
	if err := corpus.WriteFile(c, corpusPath); err != nil {
		b.Fatal(err)
	}
	r, err := corpus.OpenReader(corpusPath)
	if err != nil {
		b.Fatal(err)
	}
	idxDir := filepath.Join(dir, "idx")
	if err := os.MkdirAll(idxDir, 0o755); err != nil {
		b.Fatal(err)
	}
	if _, err := index.BuildExternal(r, idxDir, index.BuildOptions{
		K: 16, Seed: 3, T: 25, MemoryBudget: 16 << 20,
	}); err != nil {
		b.Fatal(err)
	}
	r.Close()
	ix, err := index.Open(idxDir)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	s := search.New(ix, c)
	queries := benchQueries(32, 64, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Search(queries[i%len(queries)], search.Options{Theta: 0.8, PrefixFilter: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_QueryVsLengthThreshold shows latency inversely
// proportional to the length threshold (Fig 3(g-h)).
func BenchmarkFig3_QueryVsLengthThreshold(b *testing.B) {
	queries := benchQueries(32, 128, 8)
	for _, t := range []int{25, 50, 100} {
		ix := benchIndexFor(b, 32, t)
		s := search.New(ix, benchCorpus())
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Search(queries[i%len(queries)], search.Options{Theta: 0.8, PrefixFilter: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchModel trains the shared evaluation model once.
var benchModel = sync.OnceValue(func() *lm.Model {
	m, err := lm.Train(benchCorpus(), lm.Config{Order: 4})
	if err != nil {
		panic(err)
	}
	return m
})

// BenchmarkFig4_MemorizationVsTheta runs the §5 pipeline across
// thresholds (Fig 4(a,c)); memorized-pct is the figure's y-axis.
func BenchmarkFig4_MemorizationVsTheta(b *testing.B) {
	ix := benchIndexFor(b, 32, 25)
	s := search.New(ix, benchCorpus())
	queries, err := memorize.GenerateQueries(benchModel(), memorize.GenConfig{
		NumTexts: 4, TextLength: 256, QueryLength: 32, Sampler: lm.TopK{K: 50}, Seed: 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, theta := range []float64{1.0, 0.9, 0.8} {
		b.Run(fmt.Sprintf("theta=%.1f", theta), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := memorize.Evaluate(s, queries, memorize.EvalConfig{
					Options: search.Options{Theta: theta, PrefixFilter: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio = res.Ratio
			}
			b.ReportMetric(ratio*100, "memorized-pct")
		})
	}
}

// BenchmarkFig4_MemorizationVsWidth sweeps the sliding-window width
// (Fig 4(b,d)).
func BenchmarkFig4_MemorizationVsWidth(b *testing.B) {
	ix := benchIndexFor(b, 32, 25)
	s := search.New(ix, benchCorpus())
	for _, x := range []int{32, 64, 128} {
		queries, err := memorize.GenerateQueries(benchModel(), memorize.GenConfig{
			NumTexts: 4, TextLength: 256, QueryLength: x, Sampler: lm.TopK{K: 50}, Seed: 22,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("x=%d", x), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := memorize.Evaluate(s, queries, memorize.EvalConfig{
					Options: search.Options{Theta: 0.8, PrefixFilter: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio = res.Ratio
			}
			b.ReportMetric(ratio*100, "memorized-pct")
		})
	}
}

// BenchmarkTheorem1_WindowCount validates the 2(n+1)/(t+1)-1 window
// count at generation speed over random permutations.
func BenchmarkTheorem1_WindowCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, t := 100000, 100
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	var s window.Scratch
	var ws []window.Window
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws = s.Generate(vals, t, ws[:0])
	}
	b.ReportMetric(float64(len(ws)), "windows")
	b.ReportMetric(window.ExpectedCount(n, t), "expected")
}

// BenchmarkAblation_WindowGen compares the two window generators
// (DESIGN.md AB1): the O(n) candidate-first stack on one reused
// Scratch, as the builders run it, and Algorithm 2 over ALIGN's
// segment tree.
func BenchmarkAblation_WindowGen(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 1 << 17
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	var s window.Scratch
	engines := []struct {
		name string
		gen  func(dst []window.Window) []window.Window
	}{
		{"stack", func(dst []window.Window) []window.Window { return s.Generate(vals, 50, dst) }},
		{"segtree-ALIGN", func(dst []window.Window) []window.Window { return window.GenerateSegmentTree(vals, 50, dst) }},
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			var ws []window.Window
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				ws = e.gen(ws[:0])
			}
			b.ReportMetric(float64(len(ws)), "windows")
		})
	}
}

// BenchmarkAblation_PrefixFilter compares queries with and without
// prefix filtering (DESIGN.md AB2).
func BenchmarkAblation_PrefixFilter(b *testing.B) {
	ix := benchIndexFor(b, 32, 25)
	s := search.New(ix, benchCorpus())
	queries := benchQueries(32, 64, 9)
	for _, v := range []struct {
		name string
		opts search.Options
	}{
		{"off", search.Options{Theta: 0.8}},
		{"on", search.Options{Theta: 0.8, PrefixFilter: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Search(queries[i%len(queries)], v.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaseline_Comparison pits the index against the brute-force
// scan and seed-and-extend on a small corpus (DESIGN.md AB3).
func BenchmarkBaseline_Comparison(b *testing.B) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 50, MaxLength: 120, VocabSize: 2000,
		ZipfS: 1.1, Seed: 19, DupRate: 0.4, DupSnippetLen: 32, DupMutateProb: 0.05,
	})
	const k, seed, t = 32, 3, 10
	dir := b.TempDir()
	if _, err := index.Build(c, dir, index.BuildOptions{K: k, Seed: seed, T: t}); err != nil {
		b.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	s := search.New(ix, c)
	fam := hash.MustNewFamily(k, seed)
	se := baseline.NewSeedExtend(c, 8)
	rng := rand.New(rand.NewSource(29))
	q, _, _, ok := corpus.PlantQuery(c, 24, 0.15, 2000, rng)
	if !ok {
		b.Fatal("plant failed")
	}
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Search(q, search.Options{Theta: 0.8, PrefixFilter: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = baseline.MinHashScan(c, fam, q, 0.8, t)
		}
	})
	b.Run("seed-extend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = se.Search(q, 0.8, t)
		}
	})
}
