package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
)

// Figure 3 — query processing (paper §4.2): latency (I/O + CPU split)
// and result counts under varying k, theta, corpus size, prefix length
// and length threshold.

func init() {
	register("fig3ab", "Fig 3(a-b): query latency and #near-duplicates vs k and theta (SynWeb)", fig3ab)
	register("fig3c", "Fig 3(c): query latency vs corpus size", fig3c)
	register("fig3d", "Fig 3(d): latency vs prefix length (share of long lists)", fig3d)
	register("fig3ef", "Fig 3(e-f): latency and #near-duplicates vs k and theta (SynPile, external build)", fig3ef)
	register("fig3gh", "Fig 3(g-h): latency vs theta and vs length threshold t", fig3gh)
}

const fig3QueryLen = 64

func fig3ab(e *Env) error {
	e.printf("## Fig 3(a-b): query latency split and near-duplicates found, SynWeb, t=25\n")
	e.printf("100 queries (planted near-duplicates + random), prefix filtering on\n\n")
	c := e.synWeb(1, 32000, 1)
	queries := queryWorkload(c, 100, fig3QueryLen, 32000, 0.1, 5)
	w := e.table()
	fmt.Fprintln(w, "k\ttheta\tio ms\tcpu ms\ttotal ms\tavg #near-dups")
	for _, k := range []int{16, 32, 64} {
		ix, _, err := e.buildIndex(fmt.Sprintf("f3ab-k%d", k), c, index.BuildOptions{K: k, Seed: 3, T: 25})
		if err != nil {
			return err
		}
		s := search.New(ix, c)
		for _, theta := range []float64{0.7, 0.8, 0.9, 1.0} {
			res, err := runQueries(s, queries, search.Options{Theta: theta, PrefixFilter: true})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d\t%.1f\t%s\t%s\t%s\t%.2f\n",
				k, theta, ms(res.AvgIO), ms(res.AvgCPU), ms(res.AvgTotal), res.AvgMatches)
		}
	}
	return w.Flush()
}

func fig3c(e *Env) error {
	e.printf("## Fig 3(c): query latency vs corpus size (k=32, t=25, theta=0.8)\n\n")
	w := e.table()
	fmt.Fprintln(w, "size\ttokens\tio ms\tcpu ms\ttotal ms")
	for _, mult := range []int{1, 2, 4, 8} {
		c := e.synWeb(mult, 32000, 1)
		ix, _, err := e.buildIndex(fmt.Sprintf("f3c-m%d", mult), c, index.BuildOptions{K: 32, Seed: 3, T: 25})
		if err != nil {
			return err
		}
		s := search.New(ix, c)
		queries := queryWorkload(c, 50, fig3QueryLen, 32000, 0.1, 6)
		res, err := runQueries(s, queries, search.Options{Theta: 0.8, PrefixFilter: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%dx\t%d\t%s\t%s\t%s\n", mult, c.TotalTokens(), ms(res.AvgIO), ms(res.AvgCPU), ms(res.AvgTotal))
	}
	return w.Flush()
}

func fig3d(e *Env) error {
	e.printf("## Fig 3(d): latency vs prefix length (fraction of lists deferred as long)\n")
	e.printf("k=32, t=25, theta=0.8, small vocab (pronounced Zipf head => genuinely long lists)\n")
	e.printf("one index per row, built with LongListCutoff at the row's list-length quantile, zone map step %d\n", PrefixZoneStep)
	e.printf("deferring more lists trades full-list I/O for per-candidate probes\n\n")
	// A small vocabulary concentrates postings into a heavy Zipf head,
	// reproducing the long-list skew the prefix filter targets.
	c := e.synWeb(2, 2000, 1)
	opts := index.BuildOptions{K: 32, Seed: 3, T: 25}
	base, _, err := e.buildIndex("f3d", c, opts)
	if err != nil {
		return err
	}
	queries := queryWorkload(c, 100, fig3QueryLen, 2000, 0.1, 7)
	w := e.table()
	fmt.Fprintln(w, "deferred\tcutoff(list len)\tlong lists/query\tio ms\tcpu ms\ttotal ms")
	for _, frac := range []float64{0.05, 0.10, 0.15, 0.20} {
		cutoff, res, err := prefixRun(e, "f3d", c, base, opts, queries, frac)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%.0f%%\t%d\t%.2f\t%s\t%s\t%s\n", frac*100, cutoff, res.AvgLongLists, ms(res.AvgIO), ms(res.AvgCPU), ms(res.AvgTotal))
	}
	return w.Flush()
}

func fig3ef(e *Env) error {
	e.printf("## Fig 3(e-f): query latency split and near-duplicates found, SynPile, t=25\n")
	e.printf("index built with the out-of-core builder (batched build + merge)\n\n")
	c := e.synPile(1, 9)
	// Write the corpus to disk and build externally, as the Pile-scale
	// path requires.
	dir := filepath.Join(e.WorkDir, "f3ef")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	corpusPath := filepath.Join(dir, "synpile.tok")
	if _, err := os.Stat(corpusPath); err != nil {
		if err := corpus.WriteFile(c, corpusPath); err != nil {
			return err
		}
	}
	queries := queryWorkload(c, 60, fig3QueryLen, 50257, 0.1, 8)
	w := e.table()
	fmt.Fprintln(w, "k\ttheta\tio ms\tcpu ms\ttotal ms\tavg #near-dups")
	for _, k := range []int{16, 32} {
		idxDir := filepath.Join(dir, fmt.Sprintf("idx-k%d", k))
		// An index a previous run left in the work dir is reused; anything
		// that does not open is (re)built.
		ix, err := index.Open(idxDir)
		if err != nil {
			r, err := corpus.OpenReader(corpusPath)
			if err != nil {
				return err
			}
			_, err = index.BuildExternal(r, idxDir, index.BuildOptions{
				K: k, Seed: 3, T: 25, MemoryBudget: 64 << 20,
			})
			r.Close()
			if err != nil {
				return err
			}
			if ix, err = index.Open(idxDir); err != nil {
				return err
			}
		}
		s := search.New(ix, c)
		for _, theta := range []float64{0.7, 0.8, 0.9, 1.0} {
			res, err := runQueries(s, queries, search.Options{Theta: theta, PrefixFilter: true})
			if err != nil {
				ix.Close()
				return err
			}
			fmt.Fprintf(w, "%d\t%.1f\t%s\t%s\t%s\t%.2f\n",
				k, theta, ms(res.AvgIO), ms(res.AvgCPU), ms(res.AvgTotal), res.AvgMatches)
		}
		ix.Close()
	}
	return w.Flush()
}

func fig3gh(e *Env) error {
	e.printf("## Fig 3(g-h): latency vs theta and vs length threshold t (k=32)\n\n")
	c := e.synWeb(1, 32000, 1)
	queries := queryWorkload(c, 100, 128, 32000, 0.1, 9)
	w := e.table()
	fmt.Fprintln(w, "t\ttheta\tio ms\tcpu ms\ttotal ms")
	for _, t := range []int{25, 50, 100} {
		ix, _, err := e.buildIndex(fmt.Sprintf("f3gh-t%d", t), c, index.BuildOptions{K: 32, Seed: 3, T: t})
		if err != nil {
			return err
		}
		s := search.New(ix, c)
		for _, theta := range []float64{0.7, 0.8, 0.9, 1.0} {
			res, err := runQueries(s, queries, search.Options{Theta: theta, PrefixFilter: true})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d\t%.1f\t%s\t%s\t%s\n", t, theta, ms(res.AvgIO), ms(res.AvgCPU), ms(res.AvgTotal))
		}
	}
	return w.Flush()
}
