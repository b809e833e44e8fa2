package search

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"ndss/internal/obs"
)

// TopKOptions configures SearchTopK.
type TopKOptions struct {
	// N is the number of spans to return.
	N int
	// FloorTheta bounds the candidate sweep from below: spans whose
	// estimated similarity falls under it are never considered. Lower
	// values see more candidates but cost more. Defaults to 0.5.
	FloorTheta float64
	// Search carries through the underlying query options (prefix
	// filtering etc.); Theta is overridden by the sweep.
	Search Options
}

// SearchTopK returns the up-to-N near-duplicate spans with the highest
// estimated Jaccard similarity, ordered best-first (ties by text id and
// position). It runs one search at FloorTheta and ranks the merged
// spans by their collision counts, so its cost equals a single
// low-threshold query.
//
//lint:ignore ctxflow documented compatibility wrapper; cancellable callers use SearchTopKContext
func (s *Searcher) SearchTopK(query []uint32, opts TopKOptions) ([]Match, *Stats, error) {
	return s.SearchTopKContext(context.Background(), query, opts)
}

// SearchTopKContext is SearchTopK honoring a context; see SearchContext
// for the cancellation contract.
func (s *Searcher) SearchTopKContext(ctx context.Context, query []uint32, opts TopKOptions) ([]Match, *Stats, error) {
	if opts.N <= 0 {
		return nil, nil, ValidationError(fmt.Sprintf("search: TopK N must be positive, got %d", opts.N))
	}
	floor := opts.FloorTheta
	if floor == 0 {
		floor = 0.5
	}
	if !(floor > 0 && floor <= 1) { // also rejects NaN
		return nil, nil, ValidationError(fmt.Sprintf("search: FloorTheta must be in (0, 1], got %v", floor))
	}
	sOpts := opts.Search
	sOpts.Theta = floor
	matches, st, err := s.SearchContext(ctx, query, sOpts)
	if err != nil {
		return nil, nil, err
	}
	// The ranking sort below runs after SearchContext closed its timing,
	// so charge it explicitly: Total/CPUTime stay the query's true cost
	// and the merge stage absorbs the rank time in the decomposition.
	rankStart := obs.NowMono()
	matches = RankTopK(matches, opts.N)
	rank := obs.SinceMono(rankStart)
	st.Total += rank
	st.CPUTime += rank
	st.StageTimes.Merge += rank
	st.Matches = len(matches)
	return matches, st, nil
}

// RankTopK sorts matches best-first — most collisions, ties by text id
// then start — and keeps the first n. It is the one top-k order: the
// shard coordinator ranks merged per-shard results with it, which is
// what makes sharded tie order identical to a single index's.
func RankTopK(matches []Match, n int) []Match {
	slices.SortFunc(matches, func(a, b Match) int {
		return cmp.Or(cmp.Compare(b.Collisions, a.Collisions), cmp.Compare(a.TextID, b.TextID), cmp.Compare(a.Start, b.Start))
	})
	if len(matches) > n {
		matches = matches[:n]
	}
	return matches
}
