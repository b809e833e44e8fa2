// Package core ties the substrates together into the system the paper
// describes: offline index construction (Algorithm 1) over a corpus and
// online near-duplicate sequence search (Algorithm 3) against the
// resulting index directory. It is the implementation behind the public
// ndss package.
package core

import (
	"context"

	"ndss/internal/corpus"
	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/search"
)

// Engine is an opened near-duplicate search database: an index plus an
// optional text source for verification.
type Engine struct {
	ix       *index.Index
	searcher *search.Searcher
	src      search.TextSource
}

// BuildIndex builds an index directory from an in-memory corpus.
func BuildIndex(c *corpus.Corpus, dir string, opts index.BuildOptions) (*index.BuildStats, error) {
	return index.Build(c, dir, opts)
}

// BuildIndexExternal builds an index directory from a corpus file with
// the out-of-core builder: one streaming pass in MemoryBudget-sized
// batches, merged when there is more than one.
func BuildIndexExternal(corpusPath, dir string, opts index.BuildOptions) (*index.BuildStats, error) {
	r, err := corpus.OpenReader(corpusPath)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return index.BuildExternal(r, dir, opts)
}

// Open opens an index directory. src supplies text content for
// verification and may be nil.
func Open(dir string, src search.TextSource) (*Engine, error) {
	ix, err := index.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Engine{ix: ix, searcher: search.New(ix, src), src: src}, nil
}

// Search runs one near-duplicate sequence search.
func (e *Engine) Search(query []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	return e.searcher.Search(query, opts)
}

// SearchContext is Search honoring a context: a timed-out or canceled
// query stops at the pipeline's next cancellation checkpoint (before
// any further list I/O) and returns ctx.Err().
func (e *Engine) SearchContext(ctx context.Context, query []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	return e.searcher.SearchContext(ctx, query, opts)
}

// SearchBatch runs many queries concurrently over a worker pool. Each
// result carries exact per-query I/O and CPU stats regardless of
// parallelism (every query runs in its own execution context).
func (e *Engine) SearchBatch(queries [][]uint32, opts search.Options, parallelism int) []search.BatchResult {
	return e.searcher.SearchBatch(queries, opts, parallelism)
}

// SearchBatchContext is SearchBatch honoring a context; see
// search.SearchBatchContext for the cancellation contract.
func (e *Engine) SearchBatchContext(ctx context.Context, queries [][]uint32, opts search.Options, parallelism int) []search.BatchResult {
	return e.searcher.SearchBatchContext(ctx, queries, opts, parallelism)
}

// SearchTopKContext runs a ranked top-k retrieval honoring a context.
func (e *Engine) SearchTopKContext(ctx context.Context, query []uint32, opts search.TopKOptions) ([]search.Match, *search.Stats, error) {
	return e.searcher.SearchTopKContext(ctx, query, opts)
}

// Meta returns the opened index's metadata.
func (e *Engine) Meta() index.Meta { return e.ix.Meta() }

// BuildID identifies the index build this engine serves.
func (e *Engine) BuildID() string { return e.ix.BuildID() }

// SegmentCount reports how many immutable segments back this engine's
// index (1 until appends grow the set; compaction folds it back to 1).
func (e *Engine) SegmentCount() int { return e.ix.SegmentCount() }

// Family returns the hash family queries are sketched with.
func (e *Engine) Family() *hash.Family { return e.ix.Family() }

// IOStats returns the index-wide cumulative I/O counters.
func (e *Engine) IOStats() index.IOStats { return e.ix.IOStats() }

// Explain returns the deferral plan a query would execute with, without
// reading any posting lists. The context is accepted for interface
// symmetry with the serving layer (planning itself does no I/O).
func (e *Engine) Explain(ctx context.Context, query []uint32, opts search.Options) (*search.Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.searcher.Explain(query, opts)
}

// Index exposes the underlying index for stats and experiments.
func (e *Engine) Index() *index.Index { return e.ix }

// Searcher exposes the underlying searcher.
func (e *Engine) Searcher() *search.Searcher { return e.searcher }

// Close releases the index files.
func (e *Engine) Close() error { return e.ix.Close() }
