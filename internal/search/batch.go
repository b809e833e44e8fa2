package search

import (
	"context"
	"sync"
)

// BatchResult is one query's outcome in a SearchBatch call.
type BatchResult struct {
	Matches []Match
	Stats   *Stats
	Err     error
}

// BatchStageTimes sums the per-stage decomposition over a batch's
// successful queries, so batch consumers (ndss-query, ndss-bench) can
// report where the aggregate wall time went. Failed queries contribute
// nothing; n reports how many queries were summed.
func BatchStageTimes(results []BatchResult) (total StageTimes, n int) {
	for i := range results {
		if results[i].Err != nil || results[i].Stats == nil {
			continue
		}
		total = total.Add(results[i].Stats.StageTimes)
		n++
	}
	return total, n
}

// SearchBatch runs many queries concurrently over a worker pool and
// returns results in query order. The index is safe for concurrent
// readers; parallelism <= 1 degenerates to a sequential loop.
//
// Every query executes in its own pipeline context with a private I/O
// stats sink, so each result's Stats.IOBytes/IOTime/CPUTime are exact
// for that query at any parallelism; summed over the batch, IOBytes is
// every byte the batch read.
//
//lint:ignore ctxflow documented compatibility wrapper; cancellable callers use SearchBatchContext
func (s *Searcher) SearchBatch(queries [][]uint32, opts Options, parallelism int) []BatchResult {
	return s.SearchBatchContext(context.Background(), queries, opts, parallelism)
}

// SearchBatchContext is SearchBatch honoring a context: once ctx is
// done, in-flight queries stop at their next cancellation checkpoint
// and not-yet-started queries fail immediately, all with Err set to
// ctx.Err().
func (s *Searcher) SearchBatchContext(ctx context.Context, queries [][]uint32, opts Options, parallelism int) []BatchResult {
	out := make([]BatchResult, len(queries))
	if parallelism <= 1 {
		for i, q := range queries {
			out[i].Matches, out[i].Stats, out[i].Err = s.SearchContext(ctx, q, opts)
		}
		return out
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i].Matches, out[i].Stats, out[i].Err = s.SearchContext(ctx, queries[i], opts)
			}
		}()
	}
feed:
	for i := range queries {
		select {
		case next <- i:
		case <-ctx.Done():
			for j := i; j < len(queries); j++ {
				out[j].Err = ctx.Err()
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	return out
}
