// Command ndss-memorize evaluates language-model memorization against a
// training corpus (paper §5): it trains an n-gram model on the corpus,
// samples texts without prompts, slides a fixed-width window over them,
// and reports the fraction of windows with near-duplicates in the
// corpus.
//
//	ndss-memorize -corpus corpus.tok -index idx -order 4 -x 32 -theta 0.8
//
// The index must have been built over the same corpus.
package main

import (
	"flag"
	"fmt"
	"os"

	"ndss"
	"ndss/internal/corpus"
	"ndss/internal/lm"
	"ndss/internal/memorize"
	"ndss/internal/search"
)

func main() {
	corpusPath := flag.String("corpus", "", "training corpus file (required)")
	idxDir := flag.String("index", "idx", "index directory built over the corpus")
	order := flag.Int("order", 4, "n-gram model order (capacity knob)")
	maxContexts := flag.Int("contexts", 0, "max retained contexts, 0 = unlimited (capacity knob)")
	numTexts := flag.Int("texts", 20, "number of texts to generate")
	textLen := flag.Int("textlen", 512, "tokens per generated text")
	x := flag.Int("x", 32, "sliding-window width (query length)")
	topK := flag.Int("topk", 50, "top-k sampling parameter")
	theta := flag.Float64("theta", 0.8, "Jaccard similarity threshold")
	seed := flag.Int64("seed", 1, "sampling seed")
	examples := flag.Int("examples", 3, "example matches to print")
	flag.Parse()
	if *corpusPath == "" {
		fmt.Fprintln(os.Stderr, "ndss-memorize: -corpus is required")
		os.Exit(2)
	}
	if err := run(*corpusPath, *idxDir, *order, *maxContexts, *numTexts, *textLen, *x, *topK, *theta, *seed, *examples); err != nil {
		fmt.Fprintln(os.Stderr, "ndss-memorize:", err)
		os.Exit(1)
	}
}

func run(corpusPath, idxDir string, order, maxContexts, numTexts, textLen, x, topK int, theta float64, seed int64, examples int) error {
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

	fmt.Printf("training order-%d model (max contexts %d) on %d texts...\n", order, maxContexts, c.NumTexts())
	model, err := lm.Train(c, lm.Config{Order: order, MaxContexts: maxContexts})
	if err != nil {
		return err
	}
	fmt.Printf("model holds %d contexts\n", model.NumContexts())

	queries, err := memorize.GenerateQueries(model, memorize.GenConfig{
		NumTexts:    numTexts,
		TextLength:  textLen,
		QueryLength: x,
		Sampler:     lm.TopK{K: topK},
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("generated %d query sequences (x=%d, top-%d sampling, unprompted)\n", len(queries), x, topK)

	res, err := memorize.Evaluate(db.Searcher(), queries, memorize.EvalConfig{
		Options:     search.Options{Theta: theta, PrefixFilter: true, Verify: true},
		MaxExamples: examples,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nmemorization at theta=%.2f: %d / %d queries (%.2f%%) have near-duplicates\n",
		theta, res.Memorized, res.Queries, res.Ratio*100)
	fmt.Printf("total near-duplicate spans: %d, evaluation time %v\n", res.TotalMatches, res.Elapsed)
	for i, ex := range res.Examples {
		fmt.Printf("\nexample %d:\n", i+1)
		fmt.Printf("  generated: %v...\n", head(ex.Query, 12))
		text := c.Text(ex.Match.TextID)
		fmt.Printf("  corpus:    %v... (text %d, span [%d, %d], est. J %.3f)\n",
			head(text[ex.Match.Start:ex.Match.End+1], 12),
			ex.Match.TextID, ex.Match.Start, ex.Match.End, ex.Match.EstJaccard)
	}
	return nil
}

func head(s []uint32, n int) []uint32 {
	if len(s) < n {
		return s
	}
	return s[:n]
}
