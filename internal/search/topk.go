package search

import (
	"cmp"
	"slices"
)

// RankTopK sorts matches best-first — most collisions, ties by text id
// then start — and keeps the first n. It is the one top-k order: a
// search with Options.Limit ranks with it, and the shard coordinator
// re-ranks the merged per-shard results with it, which is what makes
// sharded tie order identical to a single index's.
func RankTopK(matches []Match, n int) []Match {
	slices.SortFunc(matches, func(a, b Match) int {
		return cmp.Or(cmp.Compare(b.Collisions, a.Collisions), cmp.Compare(a.TextID, b.TextID), cmp.Compare(a.Start, b.Start))
	})
	if len(matches) > n {
		matches = matches[:n]
	}
	return matches
}
