package hash

// DistinctJaccard computes the Jaccard similarity of the distinct token
// sets of two sequences: |A ∩ B| / |A ∪ B| where A and B are the sets of
// tokens occurring in a and b. This is the paper's default similarity.
//
// Both sequences empty yields 1 (they are identical); exactly one empty
// yields 0.
func DistinctJaccard(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	seen := make(map[uint32]uint8, len(a)+len(b))
	for _, tok := range a {
		seen[tok] |= 1
	}
	for _, tok := range b {
		seen[tok] |= 2
	}
	inter := 0
	for _, m := range seen {
		if m == 3 {
			inter++
		}
	}
	union := len(seen)
	return float64(inter) / float64(union)
}

// MultisetJaccard computes the Jaccard similarity treating each
// occurrence of a token as a unique element: the intersection counts
// min(count_a, count_b) per token and the union counts
// max(count_a, count_b). For example, (A,A,A,B,B) vs (A,B,B,B,C) is 3/7.
func MultisetJaccard(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	ca := make(map[uint32]int, len(a))
	for _, tok := range a {
		ca[tok]++
	}
	cb := make(map[uint32]int, len(b))
	for _, tok := range b {
		cb[tok]++
	}
	inter, union := 0, 0
	for tok, na := range ca {
		nb := cb[tok]
		if na < nb {
			inter += na
			union += nb
		} else {
			inter += nb
			union += na
		}
	}
	for tok, nb := range cb {
		if _, ok := ca[tok]; !ok {
			union += nb
		}
	}
	return float64(inter) / float64(union)
}
