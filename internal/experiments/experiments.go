// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §5) plus the ablations called out in DESIGN.md.
// Each experiment is a named runner that prints the same rows/series the
// paper reports; cmd/ndss-bench drives them.
//
// The corpora are synthetic stand-ins (see DESIGN.md's substitution
// table): "SynWeb" mirrors OpenWebText's role (in-memory index path) and
// "SynPile" mirrors the Pile's (out-of-core index path). Sizes are
// scaled to a single small machine; the Scale knob grows them toward the
// paper's shape.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
)

// Env carries shared configuration and caches across experiment runs.
type Env struct {
	// WorkDir holds index directories and corpus files.
	WorkDir string
	// Scale multiplies corpus sizes; 1 is the quick default.
	Scale int
	// Out receives the experiment tables.
	Out io.Writer

	corpora map[string]*corpus.Corpus
	indexes map[string]builtIndex
}

// builtIndex pairs a cached index with the stats from its build.
type builtIndex struct {
	ix    *index.Index
	stats *index.BuildStats
}

// NewEnv creates an environment rooted at workDir.
func NewEnv(workDir string, scale int, out io.Writer) *Env {
	if scale < 1 {
		scale = 1
	}
	return &Env{
		WorkDir: workDir,
		Scale:   scale,
		Out:     out,
		corpora: make(map[string]*corpus.Corpus),
		indexes: make(map[string]builtIndex),
	}
}

// Close releases cached indexes.
func (e *Env) Close() {
	for _, b := range e.indexes {
		b.ix.Close()
	}
	e.indexes = make(map[string]builtIndex)
}

func (e *Env) printf(format string, args ...any) {
	fmt.Fprintf(e.Out, format, args...)
}

// table starts a tab-aligned table.
func (e *Env) table() *tabwriter.Writer {
	return tabwriter.NewWriter(e.Out, 2, 4, 2, ' ', 0)
}

// synWeb returns (cached) the OpenWebText stand-in at a size multiple
// and vocabulary size.
func (e *Env) synWeb(mult, vocab int, seed int64) *corpus.Corpus {
	key := fmt.Sprintf("synweb-%d-%d-%d", mult, vocab, seed)
	if c, ok := e.corpora[key]; ok {
		return c
	}
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts:      500 * mult * e.Scale,
		MinLength:     100,
		MaxLength:     700,
		VocabSize:     vocab,
		ZipfS:         1.07,
		Seed:          seed,
		DupRate:       0.15,
		DupSnippetLen: 64,
		DupMutateProb: 0.05,
	})
	e.corpora[key] = c
	return c
}

// synPile returns the Pile stand-in (larger texts, GPT-2 vocab size).
func (e *Env) synPile(mult int, seed int64) *corpus.Corpus {
	key := fmt.Sprintf("synpile-%d-%d", mult, seed)
	if c, ok := e.corpora[key]; ok {
		return c
	}
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts:      300 * mult * e.Scale,
		MinLength:     200,
		MaxLength:     1200,
		VocabSize:     50257,
		ZipfS:         1.07,
		Seed:          seed,
		DupRate:       0.2,
		DupSnippetLen: 80,
		DupMutateProb: 0.05,
	})
	e.corpora[key] = c
	return c
}

// buildIndex builds (or returns cached) an index for a corpus under a
// parameter set and returns it with the stats from its (first) build.
func (e *Env) buildIndex(name string, c *corpus.Corpus, opts index.BuildOptions) (*index.Index, *index.BuildStats, error) {
	key := fmt.Sprintf("%s-k%d-t%d-s%d-z%d-c%d", name, opts.K, opts.T, opts.Seed, opts.ZoneMapStep, opts.LongListCutoff)
	if b, ok := e.indexes[key]; ok {
		return b.ix, b.stats, nil
	}
	dir := filepath.Join(e.WorkDir, key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	stats, err := index.Build(c, dir, opts)
	if err != nil {
		return nil, nil, err
	}
	ix, err := index.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	e.indexes[key] = builtIndex{ix: ix, stats: stats}
	return ix, stats, nil
}

// queryWorkload derives numQueries query sequences of the given length
// from a corpus: planted near-duplicates (mutated corpus snippets, the
// analogue of LLM-generated text that echoes training data) mixed with
// fresh random-token queries.
func queryWorkload(c *corpus.Corpus, numQueries, length, vocab int, mutateProb float64, seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	queries := make([][]uint32, 0, numQueries)
	for i := 0; i < numQueries; i++ {
		if i%2 == 0 {
			if q, _, _, ok := corpus.PlantQuery(c, length, mutateProb, vocab, rng); ok {
				queries = append(queries, q)
				continue
			}
		}
		q := make([]uint32, length)
		for j := range q {
			q[j] = uint32(rng.Intn(vocab))
		}
		queries = append(queries, q)
	}
	return queries
}

// queryResult aggregates a query batch.
type queryResult struct {
	AvgTotal     time.Duration
	AvgIO        time.Duration
	AvgCPU       time.Duration
	AvgMatches   float64
	AvgLongLists float64 // lists deferred per query (Stats.LongLists)
}

// runQueries executes a batch and averages the latency split.
func runQueries(s *search.Searcher, queries [][]uint32, opts search.Options) (queryResult, error) {
	var res queryResult
	var total, io time.Duration
	var matches, long int
	for _, q := range queries {
		ms, st, err := s.Search(q, opts)
		if err != nil {
			return res, err
		}
		total += st.Total
		io += st.IOTime
		matches += len(ms)
		long += st.LongLists
	}
	n := time.Duration(len(queries))
	if n == 0 {
		return res, nil
	}
	res.AvgTotal = total / n
	res.AvgIO = io / n
	res.AvgCPU = res.AvgTotal - res.AvgIO
	res.AvgMatches = float64(matches) / float64(len(queries))
	res.AvgLongLists = float64(long) / float64(len(queries))
	return res, nil
}

// TopFractionCutoff returns the list length that about frac of ix's
// inverted lists, over all hash functions, exceed: built with it as
// LongListCutoff, an index defers its longest frac of lists.
func TopFractionCutoff(ix *index.Index, frac float64) int {
	var lengths []int
	for fn := 0; fn < ix.K(); fn++ {
		lengths = append(lengths, ix.ListLengths(fn)...)
	}
	slices.Sort(lengths)
	return lengths[min(int(float64(len(lengths))*(1-frac)), len(lengths)-1)]
}

// PrefixZoneStep is the zone-map step of every index a prefix-length
// sweep builds: at most the smallest swept cutoff, so a probe into a
// list just above the cutoff reads one block, not the whole list.
const PrefixZoneStep = 16

// prefixRun builds c under opts with LongListCutoff at base's
// TopFractionCutoff for frac — the build-time cutoff is the planner's
// only deferral control — and answers queries on it at theta 0.8 with
// the prefix filter on.
func prefixRun(e *Env, name string, c *corpus.Corpus, base *index.Index, opts index.BuildOptions, queries [][]uint32, frac float64) (cutoff int, res queryResult, err error) {
	opts.ZoneMapStep, opts.LongListCutoff = PrefixZoneStep, TopFractionCutoff(base, frac)
	ix, _, err := e.buildIndex(name, c, opts)
	if err != nil {
		return 0, res, err
	}
	res, err = runQueries(search.New(ix, c), queries, search.Options{Theta: 0.8, PrefixFilter: true})
	return opts.LongListCutoff, res, err
}

// Experiment is one named runner.
type Experiment struct {
	ID   string
	Desc string
	Run  func(e *Env) error
}

// registry holds all experiments keyed by id.
var registry []Experiment

func register(id, desc string, run func(e *Env) error) {
	registry = append(registry, Experiment{ID: id, Desc: desc, Run: run})
}

// All returns every registered experiment, sorted by id.
func All() []Experiment {
	out := append([]Experiment{}, registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, ex := range registry {
		if ex.ID == id {
			return ex, true
		}
	}
	return Experiment{}, false
}

// ms formats a duration in milliseconds with 3 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}
