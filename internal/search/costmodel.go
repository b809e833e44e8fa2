package search

import (
	"cmp"
	"slices"
)

// CostModel estimates query cost to pick which of the k inverted lists
// to defer (§3.5 points at cost-model work for choosing the prefix
// cutoff; this is a simple instantiation).
//
// Reading a list fully costs ReadNsPerPosting per posting. Deferring a
// list avoids that read but (a) lowers the short-list collision
// threshold from beta to beta - deferred, admitting more candidate
// texts, and (b) costs ProbeNs per (candidate, deferred list) zone-map
// probe. The candidate count is bounded by shortPostings / threshold —
// each candidate consumes at least `threshold` of the loaded postings.
type CostModel struct {
	// ReadNsPerPosting is the cost to read and decode one posting from
	// a fully loaded list.
	ReadNsPerPosting float64
	// ProbeNs is the fixed cost of one per-text probe into a deferred
	// list (zone-map lookup plus one zone-sized read).
	ProbeNs float64
}

// DefaultCostModel returns coefficients calibrated for page-cached
// reads; exact values matter much less than their ratio.
func DefaultCostModel() CostModel {
	return CostModel{ReadNsPerPosting: 30, ProbeNs: 20000}
}

// estimate returns the modeled cost when the d longest lists are
// deferred. lengths must be sorted descending.
func (m CostModel) estimate(lengths []int, beta, d int) float64 {
	var shortPostings int
	for _, n := range lengths[d:] {
		shortPostings += n
	}
	cost := float64(shortPostings) * m.ReadNsPerPosting
	if d == 0 {
		return cost
	}
	threshold := beta - d
	if threshold < 1 {
		threshold = 1
	}
	candidates := float64(shortPostings) / float64(threshold)
	return cost + candidates*float64(d)*m.ProbeNs
}

// ChooseDeferral returns, for each of the k query lists, whether it
// should be deferred (probed per candidate) rather than read fully. At
// most beta-1 lists are deferred so the short-list filter keeps a
// positive threshold. The choice minimizes the model's estimated cost;
// deferral always takes the longest lists first (deferring a shorter
// list while reading a longer one is never better under this model).
func ChooseDeferral(lengths []int, beta int, m CostModel) []bool {
	k := len(lengths)
	out := make([]bool, k)
	if k == 0 {
		return out
	}
	if beta < 1 {
		beta = 1
	}
	// Rank lists by length, longest first.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(lengths[b], lengths[a]) })
	sorted := make([]int, k)
	for r, idx := range order {
		sorted[r] = lengths[idx]
	}
	maxDefer := beta - 1
	if maxDefer > k {
		maxDefer = k
	}
	bestD, bestCost := 0, m.estimate(sorted, beta, 0)
	for d := 1; d <= maxDefer; d++ {
		if c := m.estimate(sorted, beta, d); c < bestCost {
			bestD, bestCost = d, c
		}
	}
	for r := 0; r < bestD; r++ {
		out[order[r]] = true
	}
	return out
}
