// Package ndss is a scalable near-duplicate sequence search library, a
// faithful reproduction of "Near-Duplicate Sequence Search at Scale for
// Large Language Model Memorization Evaluation" (SIGMOD 2023).
//
// Given a corpus of tokenized texts, ndss builds k inverted files of
// min-hash compact windows (one per hash function) so that, for any
// query sequence Q and Jaccard threshold θ, it can report every
// sequence T[i..j] of at least t tokens whose estimated Jaccard
// similarity with Q is at least θ — in time far below enumerating the
// O(n²) sequences of each text.
//
// Basic usage:
//
//	// Offline: build an index over a tokenized corpus.
//	texts := [][]uint32{ /* token ids */ }
//	stats, err := ndss.BuildIndex(texts, "idx", ndss.BuildOptions{
//		K: 32, Seed: 1, T: 25,
//	})
//
//	// Online: open and query.
//	db, err := ndss.Open("idx")
//	defer db.Close()
//	db.AttachTexts(texts) // optional, enables Verify
//	matches, qstats, err := db.Search(query, ndss.SearchOptions{
//		Theta: 0.8, PrefixFilter: true,
//	})
//
// Each Match is a merged span of overlapping qualifying sequences in one
// text, per the paper's reporting rule. See DESIGN.md for the system
// layout and EXPERIMENTS.md for the reproduced evaluation.
package ndss

import (
	"context"
	"io"

	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
)

// BuildOptions configures index construction. See index.BuildOptions for
// field documentation; the required fields are K (number of hash
// functions) and T (minimum indexed sequence length).
type BuildOptions = index.BuildOptions

// BuildStats reports the work an index build performed.
type BuildStats = index.BuildStats

// SearchOptions configures one query. Theta is required.
type SearchOptions = search.Options

// Match is one reported near-duplicate span.
type Match = search.Match

// QueryStats describes one query's execution. Its IOBytes/IOTime/
// CPUTime split comes from a per-query I/O sink and is exact even for
// queries running concurrently (SearchBatch).
type QueryStats = search.Stats

// BatchResult is one query's outcome in a SearchBatch call.
type BatchResult = search.BatchResult

// QueryPlan is the deferral plan the staged query pipeline executes a
// query with (which inverted lists are read fully vs. probed).
type QueryPlan = search.Plan

// TextSource resolves text ids to token sequences (for verification).
type TextSource = search.TextSource

// BuildIndex builds an index directory over in-memory tokenized texts.
// Text ids are the slice indexes.
func BuildIndex(texts [][]uint32, dir string, opts BuildOptions) (*BuildStats, error) {
	return index.Build(corpus.New(texts), dir, opts)
}

// BuildIndexFromFile builds an index directory from a corpus file
// (written with WriteCorpusFile) using the out-of-core builder, suitable
// for corpora larger than memory: it streams the file once, builds
// batches of at most opts.MemoryBudget, and merges them into one index.
func BuildIndexFromFile(corpusPath, dir string, opts BuildOptions) (*BuildStats, error) {
	r, err := corpus.OpenReader(corpusPath)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return index.BuildExternal(r, dir, opts)
}

// WriteCorpusFile writes tokenized texts to the binary corpus format.
func WriteCorpusFile(texts [][]uint32, path string) error {
	return corpus.WriteFile(corpus.New(texts), path)
}

// DB is an opened index ready for queries: the index, the searcher
// over it and an optional text source for verification. It is the one
// engine the commands, the HTTP server and in-process shards run
// queries through, and it satisfies shard.Backend. Queries may run
// concurrently; Attach and Close may not run alongside them.
type DB struct {
	ix       *index.Index
	searcher *search.Searcher
	src      TextSource
}

// Open opens an index directory built by BuildIndex or
// BuildIndexFromFile.
func Open(dir string) (*DB, error) {
	ix, err := index.Open(dir)
	if err != nil {
		return nil, err
	}
	return &DB{ix: ix, searcher: search.New(ix, nil)}, nil
}

// Attach makes src the text source searches verify against
// (SearchOptions.Verify) and takes ownership of it: Close, or a later
// Attach, closes a source that is an io.Closer. The open index is kept;
// only the searcher over it is replaced. The error is that of closing
// the previous source.
func (db *DB) Attach(src TextSource) error {
	old := db.src
	db.searcher = search.New(db.ix, src)
	db.src = src
	return closeSource(old)
}

// AttachTexts is Attach over in-memory texts.
func (db *DB) AttachTexts(texts [][]uint32) error {
	return db.Attach(corpus.New(texts))
}

// AttachCorpusFile is Attach over a corpus file; texts are fetched
// lazily per match.
func (db *DB) AttachCorpusFile(path string) error {
	r, err := corpus.OpenReader(path)
	if err != nil {
		return err
	}
	return db.Attach(r)
}

func closeSource(src TextSource) error {
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Search reports every near-duplicate span of query per opts.
func (db *DB) Search(query []uint32, opts SearchOptions) ([]Match, *QueryStats, error) {
	return db.searcher.Search(query, opts)
}

// SearchContext is Search honoring a context: when ctx is canceled or
// its deadline passes, the query stops before its next index read and
// returns ctx.Err(). Use it to bound query latency in services.
func (db *DB) SearchContext(ctx context.Context, query []uint32, opts SearchOptions) ([]Match, *QueryStats, error) {
	return db.searcher.SearchContext(ctx, query, opts)
}

// Searcher exposes the underlying searcher for pipelines that drive
// many queries directly (e.g. the memorization evaluator).
func (db *DB) Searcher() *search.Searcher { return db.searcher }

// SearchBatch runs many queries concurrently and returns per-query
// results in order. Every result's QueryStats are exact for that query
// at any parallelism.
func (db *DB) SearchBatch(queries [][]uint32, opts SearchOptions, parallelism int) []BatchResult {
	return db.searcher.SearchBatch(queries, opts, parallelism)
}

// SearchBatchContext is SearchBatch honoring a context: once ctx is
// done, in-flight queries stop at their next cancellation checkpoint
// and unstarted queries fail immediately with ctx.Err().
func (db *DB) SearchBatchContext(ctx context.Context, queries [][]uint32, opts SearchOptions, parallelism int) []BatchResult {
	return db.searcher.SearchBatchContext(ctx, queries, opts, parallelism)
}

// Explain returns the plan a query would execute with under opts,
// without reading any posting lists. Planning does no I/O; ctx is only
// checked once, so Explain matches the other query entry points.
func (db *DB) Explain(ctx context.Context, query []uint32, opts SearchOptions) (*QueryPlan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return db.searcher.Explain(query, opts)
}

// Meta returns the opened index's metadata.
func (db *DB) Meta() index.Meta { return db.ix.Meta() }

// BuildID identifies the index build this DB serves.
func (db *DB) BuildID() string { return db.ix.BuildID() }

// SegmentCount reports how many immutable segments back the index (1
// until appends grow the set; compaction folds it back to 1).
func (db *DB) SegmentCount() int { return db.ix.SegmentCount() }

// IndexStats summarizes the opened index.
type IndexStats struct {
	K           int
	T           int
	NumTexts    int
	TotalTokens int64
	// Windows is the total number of indexed compact windows.
	Windows int64
	// SizeOnDisk is the combined inverted-file size in bytes.
	SizeOnDisk int64
}

// Stats summarizes the opened index.
func (db *DB) Stats() (IndexStats, error) {
	size, err := db.ix.SizeOnDisk()
	if err != nil {
		return IndexStats{}, err
	}
	m := db.ix.Meta()
	return IndexStats{
		K:           m.K,
		T:           m.T,
		NumTexts:    m.NumTexts,
		TotalTokens: m.TotalTokens,
		Windows:     db.ix.TotalPostings(),
		SizeOnDisk:  size,
	}, nil
}

// Close releases the index files and closes the attached source when
// it is an io.Closer.
func (db *DB) Close() error {
	err := db.ix.Close()
	if cerr := closeSource(db.src); err == nil {
		err = cerr
	}
	return err
}
