// Command ndss-dedup scans a corpus for internal near-duplicate content
// (a windowed self-join over the index) — the corpus-deduplication
// workflow that motivates near-duplicate search for LLM training data.
//
//	ndss-dedup -corpus corpus.tok -index idx -theta 0.8 -window 64
//
// The index must have been built over the same corpus.
package main

import (
	"flag"
	"fmt"
	"os"

	"ndss"
	"ndss/internal/corpus"
	"ndss/internal/dedup"
	"ndss/internal/search"
)

func main() {
	corpusPath := flag.String("corpus", "", "corpus file (required)")
	idxDir := flag.String("index", "idx", "index directory built over the corpus")
	theta := flag.Float64("theta", 0.8, "Jaccard similarity threshold")
	window := flag.Int("window", 64, "scan window width in tokens")
	stride := flag.Int("stride", 0, "window stride (default: window width)")
	parallel := flag.Int("parallel", 1, "query workers")
	maxPrint := flag.Int("print", 20, "max pairs to print")
	flag.Parse()
	if *corpusPath == "" {
		fmt.Fprintln(os.Stderr, "ndss-dedup: -corpus is required")
		os.Exit(2)
	}
	if err := run(*corpusPath, *idxDir, *theta, *window, *stride, *parallel, *maxPrint); err != nil {
		fmt.Fprintln(os.Stderr, "ndss-dedup:", err)
		os.Exit(1)
	}
}

func run(corpusPath, idxDir string, theta float64, window, stride, parallel, maxPrint int) error {
	c, err := corpus.ReadFile(corpusPath)
	if err != nil {
		return err
	}
	db, err := ndss.Open(idxDir)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Attach(c); err != nil {
		return err
	}

	pairs, stats, err := dedup.ScanCorpus(db.Searcher(), c, dedup.Options{
		Theta:       theta,
		Window:      window,
		Stride:      stride,
		Search:      search.Options{PrefixFilter: true},
		Parallelism: parallel,
	})
	if err != nil {
		return err
	}
	fmt.Printf("scanned %d texts (%d windows) in %v\n", stats.Texts, stats.Windows, stats.Elapsed)
	fmt.Printf("query work: io %v, cpu %v, %d bytes read (exact per-query sums)\n",
		stats.IOTime, stats.CPUTime, stats.IOBytes)
	fmt.Printf("near-duplicate pairs: %d (across %d text pairs, %d raw window hits)\n",
		stats.Pairs, stats.TextPairs, stats.RawHits)
	for i, p := range pairs {
		if i >= maxPrint {
			fmt.Printf("... and %d more\n", len(pairs)-maxPrint)
			break
		}
		fmt.Printf("  text %d [%d, %d]  ~  text %d [%d, %d]  (est. Jaccard %.2f)\n",
			p.TextA, p.StartA, p.EndA, p.TextB, p.StartB, p.EndB, p.BestEstJaccard)
	}
	return nil
}
