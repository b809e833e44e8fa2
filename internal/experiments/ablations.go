package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"ndss/internal/baseline"
	"ndss/internal/corpus"
	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/rmq"
	"ndss/internal/search"
	"ndss/internal/window"
)

// Ablations and analysis validations called out in DESIGN.md.

func init() {
	register("th1", "Theorem 1: measured window count vs 2(n+1)/(t+1)-1", th1)
	register("ab1", "Ablation: RMQ structure choice in window generation (segment tree = ALIGN)", ab1)
	register("ab2", "Ablation: prefix filtering and zone maps on/off", ab2)
	register("ab3", "Baselines: index search vs brute force vs seed-and-extend (time + recall)", ab3)
}

func th1(e *Env) error {
	e.printf("## Theorem 1: compact windows per text, measured vs expected\n")
	e.printf("random distinct-token texts, 100 trials each\n\n")
	w := e.table()
	fmt.Fprintln(w, "n\tt\tmeasured(avg)\texpected\trel.err")
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []struct{ n, t int }{
		{1000, 25}, {1000, 50}, {10000, 50}, {10000, 100}, {100000, 100}, {100000, 200},
	} {
		vals := make([]uint64, cfg.n)
		total := 0
		const trials = 100
		for tr := 0; tr < trials; tr++ {
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			total += len(window.GenerateLinear(vals, cfg.t, nil))
		}
		mean := float64(total) / trials
		exp := window.ExpectedCount(cfg.n, cfg.t)
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%.3f%%\n", cfg.n, cfg.t, mean, exp, 100*(mean-exp)/exp)
	}
	return w.Flush()
}

func ab1(e *Env) error {
	e.printf("## Ablation: window-generation algorithm / RMQ structure\n")
	e.printf("one pass over SynWeb 1x token hashes, t=50\n\n")
	c := e.synWeb(1, 32000, 1)
	fam := hash.MustNewFamily(1, 1)
	gens := []struct {
		name string
		gen  func(vals []uint64, t int, dst []window.Window) []window.Window
	}{
		{"stack (ours, O(n))", window.GenerateLinear},
		{"rmq linear (paper, O(n))", func(v []uint64, t int, dst []window.Window) []window.Window {
			return window.Generate(v, t, func(x []uint64) rmq.RMQ { return rmq.NewLinear(x) }, dst)
		}},
		{"rmq sparse (O(n log n) space)", func(v []uint64, t int, dst []window.Window) []window.Window {
			return window.Generate(v, t, func(x []uint64) rmq.RMQ { return rmq.NewSparse(x) }, dst)
		}},
		{"segment tree (ALIGN, O(n log n))", func(v []uint64, t int, dst []window.Window) []window.Window {
			return window.Generate(v, t, func(x []uint64) rmq.RMQ { return rmq.NewSegmentTree(x) }, dst)
		}},
	}
	w := e.table()
	fmt.Fprintln(w, "generator\twindows\ttime ms")
	for _, g := range gens {
		var vals []uint64
		var ws []window.Window
		start := time.Now()
		count := 0
		for id := 0; id < c.NumTexts(); id++ {
			vals = window.Hashes(c.Text(uint32(id)), fam.Func(0), vals)
			ws = g.gen(vals, 50, ws[:0])
			count += len(ws)
		}
		fmt.Fprintf(w, "%s\t%d\t%s\n", g.name, count, ms(time.Since(start)))
	}
	return w.Flush()
}

func ab2(e *Env) error {
	e.printf("## Ablation: prefix filtering on/off (k=32, t=25, theta=0.8)\n\n")
	c := e.synWeb(1, 32000, 1)
	ix, _, err := e.buildIndex("f3ab-k32", c, index.BuildOptions{K: 32, Seed: 3, T: 25})
	if err != nil {
		return err
	}
	s := search.New(ix, c)
	queries := queryWorkload(c, 100, fig3QueryLen, 32000, 0.1, 13)
	w := e.table()
	fmt.Fprintln(w, "variant\tio ms\tcpu ms\ttotal ms\tavg #near-dups")
	for _, v := range []struct {
		name string
		opts search.Options
	}{
		{"no prefix filter (all lists read fully)", search.Options{Theta: 0.8}},
		{"prefix filter, cutoff at top 10%", search.Options{Theta: 0.8, PrefixFilter: true,
			LongListThreshold: search.CutoffForTopFraction(ix, 0.10)}},
		{"prefix filter, aggressive cutoff (top 20%)", search.Options{Theta: 0.8, PrefixFilter: true,
			LongListThreshold: search.CutoffForTopFraction(ix, 0.20)}},
	} {
		res, err := runQueries(s, queries, v.opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.2f\n", v.name, ms(res.AvgIO), ms(res.AvgCPU), ms(res.AvgTotal), res.AvgMatches)
	}
	return w.Flush()
}

func ab3(e *Env) error {
	e.printf("## Baselines: ours vs brute-force scan vs seed-and-extend\n")
	e.printf("small corpus (brute force is quadratic), theta=0.8, t=10, 20 queries\n\n")
	// A deliberately small corpus so the O(k n^2) brute force finishes.
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 100, MinLength: 50, MaxLength: 150, VocabSize: 2000,
		ZipfS: 1.1, Seed: 19, DupRate: 0.4, DupSnippetLen: 32, DupMutateProb: 0.05,
	})
	const k, seed, t = 32, 3, 10
	ix, _, err := e.buildIndex("ab3", c, index.BuildOptions{K: k, Seed: seed, T: t})
	if err != nil {
		return err
	}
	s := search.New(ix, c)
	fam := hash.MustNewFamily(k, seed)
	se := baseline.NewSeedExtend(c, 8)
	rng := rand.New(rand.NewSource(29))
	var queries [][]uint32
	for len(queries) < 20 {
		if q, _, _, ok := corpus.PlantQuery(c, 24, 0.15, 2000, rng); ok {
			queries = append(queries, q)
		}
	}

	type row struct {
		name    string
		elapsed time.Duration
		found   int
		recall  float64
	}
	var rows []row

	// Ground truth + brute force timing (they are the same scan).
	truth := make([]map[uint32]bool, len(queries)) // texts with a hit
	start := time.Now()
	truthTotal := 0
	for i, q := range queries {
		spans := baseline.MinHashScan(c, fam, q, 0.8, t)
		truth[i] = map[uint32]bool{}
		for _, sp := range spans {
			truth[i][sp.TextID] = true
		}
		truthTotal += len(spans)
	}
	rows = append(rows, row{"brute-force min-hash scan (exact)", time.Since(start), truthTotal, 1})

	// Our index search.
	start = time.Now()
	found := 0
	hit, want := 0, 0
	for i, q := range queries {
		msr, _, err := s.Search(q, search.Options{Theta: 0.8, PrefixFilter: true})
		if err != nil {
			return err
		}
		found += len(msr)
		got := map[uint32]bool{}
		for _, m := range msr {
			got[m.TextID] = true
		}
		for id := range truth[i] {
			want++
			if got[id] {
				hit++
			}
		}
	}
	rows = append(rows, row{"compact-window index (ours)", time.Since(start), found, recall(hit, want)})

	// Seed-and-extend heuristic.
	start = time.Now()
	found, hit, want = 0, 0, 0
	for i, q := range queries {
		spans := se.Search(q, 0.8, t)
		found += len(spans)
		got := map[uint32]bool{}
		for _, sp := range spans {
			got[sp.TextID] = true
		}
		for id := range truth[i] {
			want++
			if got[id] {
				hit++
			}
		}
	}
	rows = append(rows, row{"seed-and-extend (no guarantee)", time.Since(start), found, recall(hit, want)})

	w := e.table()
	fmt.Fprintln(w, "method\ttime ms\tspans found\trecall vs Def.2 truth")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.3f\n", r.name, ms(r.elapsed), r.found, r.recall)
	}
	return w.Flush()
}

func recall(hit, want int) float64 {
	if want == 0 {
		return 1
	}
	return float64(hit) / float64(want)
}
