package experiments

import (
	"fmt"

	"ndss/internal/index"
	"ndss/internal/window"
)

// Figure 2 — index construction (paper §4.1): number of compact windows,
// index size and index time, under varying length threshold t, number of
// hash functions k, vocabulary size and corpus size.

func init() {
	register("fig2ab", "Fig 2(a-b): #compact windows vs length threshold t, hash count k, vocab size", fig2ab)
	register("fig2cd", "Fig 2(c-d): #compact windows vs corpus size (linear scaling)", fig2cd)
	register("fig2eh", "Fig 2(e-h): index size vs t, k, vocab, corpus size", fig2eh)
	register("fig2il", "Fig 2(i-l): index time (generation vs I/O) vs t, k, corpus size", fig2il)
}

func fig2ab(e *Env) error {
	e.printf("## Fig 2(a-b): compact windows generated vs t (k=1) and vs k (t=100)\n")
	e.printf("corpus: SynWeb 1x, vocab in {32000, 64000}\n\n")
	w := e.table()
	fmt.Fprintln(w, "vocab\tt\tk\twindows\texpected(2N/(t+1)-1 per text)")
	for _, vocab := range []int{32000, 64000} {
		c := e.synWeb(1, vocab, 1)
		n := c.TotalTokens()
		for _, t := range []int{25, 50, 100, 200} {
			ix, _, err := e.buildIndex(fmt.Sprintf("f2ab-v%d", vocab), c, index.BuildOptions{K: 1, Seed: 7, T: t})
			if err != nil {
				return err
			}
			exp := 0.0
			for id := 0; id < c.NumTexts(); id++ {
				exp += window.ExpectedCount(len(c.Text(uint32(id))), t)
			}
			fmt.Fprintf(w, "%d\t%d\t1\t%d\t%.0f\n", vocab, t, ix.TotalPostings(), exp)
			_ = n
		}
	}
	// Windows grow linearly with k (t fixed at 100).
	c := e.synWeb(1, 32000, 1)
	for _, k := range []int{1, 2, 4, 8} {
		ix, _, err := e.buildIndex("f2ab-kscale", c, index.BuildOptions{K: k, Seed: 7, T: 100})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "32000\t100\t%d\t%d\t(linear in k)\n", k, ix.TotalPostings())
	}
	return w.Flush()
}

func fig2cd(e *Env) error {
	e.printf("## Fig 2(c-d): compact windows vs corpus size (k=1, t=100, vocab 64K)\n\n")
	w := e.table()
	fmt.Fprintln(w, "size\ttexts\ttokens\twindows\twindows/tokens")
	for _, mult := range []int{1, 2, 4, 8} {
		c := e.synWeb(mult, 64000, 1)
		ix, _, err := e.buildIndex(fmt.Sprintf("f2cd-m%d", mult), c, index.BuildOptions{K: 1, Seed: 7, T: 100})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%dx\t%d\t%d\t%d\t%.5f\n",
			mult, c.NumTexts(), c.TotalTokens(), ix.TotalPostings(),
			float64(ix.TotalPostings())/float64(c.TotalTokens()))
	}
	return w.Flush()
}

func fig2eh(e *Env) error {
	e.printf("## Fig 2(e-h): index size on disk\n\n")
	w := e.table()
	fmt.Fprintln(w, "series\tparam\tindex bytes\tcorpus bytes\tratio")
	c := e.synWeb(1, 32000, 1)
	corpusBytes := c.TotalTokens() * 4
	for _, t := range []int{25, 50, 100, 200} {
		ix, _, err := e.buildIndex("f2ab-v32000", c, index.BuildOptions{K: 1, Seed: 7, T: t})
		if err != nil {
			return err
		}
		size, err := ix.SizeOnDisk()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "vs t (k=1)\tt=%d\t%d\t%d\t%.4f\n", t, size, corpusBytes, float64(size)/float64(corpusBytes))
	}
	for _, k := range []int{1, 2, 4, 8} {
		ix, _, err := e.buildIndex("f2ab-kscale", c, index.BuildOptions{K: k, Seed: 7, T: 100})
		if err != nil {
			return err
		}
		size, err := ix.SizeOnDisk()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "vs k (t=100)\tk=%d\t%d\t%d\t%.4f\n", k, size, corpusBytes, float64(size)/float64(corpusBytes))
	}
	for _, mult := range []int{1, 2, 4, 8} {
		cm := e.synWeb(mult, 64000, 1)
		ix, _, err := e.buildIndex(fmt.Sprintf("f2cd-m%d", mult), cm, index.BuildOptions{K: 1, Seed: 7, T: 100})
		if err != nil {
			return err
		}
		size, err := ix.SizeOnDisk()
		if err != nil {
			return err
		}
		cb := cm.TotalTokens() * 4
		fmt.Fprintf(w, "vs size (k=1,t=100)\t%dx\t%d\t%d\t%.4f\n", mult, size, cb, float64(size)/float64(cb))
	}
	return w.Flush()
}

func fig2il(e *Env) error {
	e.printf("## Fig 2(i-l): index time split into window generation (CPU) and I/O\n")
	e.printf("(fresh builds; not cached; one build worker, so the two stages add up)\n\n")
	w := e.table()
	fmt.Fprintln(w, "series\tparam\tgen ms\tio ms\ttotal ms")
	c := e.synWeb(1, 32000, 1)
	for _, t := range []int{25, 50, 100, 200} {
		_, stats, err := e.buildIndex(fmt.Sprintf("f2il-t%d", t), c, index.BuildOptions{K: 1, Seed: 11, T: t, Parallelism: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "vs t (k=1)\tt=%d\t%s\t%s\t%s\n", t, ms(stats.GenTime), ms(stats.IOTime), ms(stats.GenTime+stats.IOTime))
	}
	for _, k := range []int{1, 2, 4, 8} {
		_, stats, err := e.buildIndex(fmt.Sprintf("f2il-k%d", k), c, index.BuildOptions{K: k, Seed: 11, T: 100, Parallelism: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "vs k (t=100)\tk=%d\t%s\t%s\t%s\n", k, ms(stats.GenTime), ms(stats.IOTime), ms(stats.GenTime+stats.IOTime))
	}
	for _, mult := range []int{1, 2, 4, 8} {
		cm := e.synWeb(mult, 64000, 1)
		_, stats, err := e.buildIndex(fmt.Sprintf("f2il-m%d", mult), cm, index.BuildOptions{K: 1, Seed: 11, T: 100, Parallelism: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "vs size (k=1,t=100)\t%dx\t%s\t%s\t%s\n", mult, ms(stats.GenTime), ms(stats.IOTime), ms(stats.GenTime+stats.IOTime))
	}
	return w.Flush()
}
