package lm

import "math/rand"

// Sampler picks the next token from a candidate distribution. Candidates
// arrive sorted by descending count.
type Sampler interface {
	Pick(cands []Cand, rng *rand.Rand) uint32
}

// Greedy always picks the most frequent next token (the paper's greedy
// search).
type Greedy struct{}

// Pick returns the top candidate.
func (Greedy) Pick(cands []Cand, _ *rand.Rand) uint32 { return cands[0].Token }

// Random samples from the full learned distribution (the paper's
// "random sampling based on the learned probability distribution").
type Random struct{}

// Pick samples proportionally to counts.
func (Random) Pick(cands []Cand, rng *rand.Rand) uint32 {
	return weightedPick(cands, rng)
}

// TopK samples from the K most probable candidates, the strategy the
// paper's memorization evaluation uses (top-50).
type TopK struct {
	K int
}

// Pick samples proportionally among the top K candidates.
func (s TopK) Pick(cands []Cand, rng *rand.Rand) uint32 {
	k := s.K
	if k < 1 {
		k = 1
	}
	if k > len(cands) {
		k = len(cands)
	}
	return weightedPick(cands[:k], rng)
}

// TopP samples from the smallest prefix of candidates whose cumulative
// probability reaches P (nucleus sampling).
type TopP struct {
	P float64
}

// Pick samples from the nucleus.
func (s TopP) Pick(cands []Cand, rng *rand.Rand) uint32 {
	p := s.P
	if p <= 0 || p > 1 {
		p = 1
	}
	var total int64
	for _, c := range cands {
		total += c.Count
	}
	target := int64(p * float64(total))
	var cum int64
	cut := len(cands)
	for i, c := range cands {
		cum += c.Count
		if cum >= target {
			cut = i + 1
			break
		}
	}
	return weightedPick(cands[:cut], rng)
}

func weightedPick(cands []Cand, rng *rand.Rand) uint32 {
	var total int64
	for _, c := range cands {
		total += c.Count
	}
	x := rng.Int63n(total)
	for _, c := range cands {
		x -= c.Count
		if x < 0 {
			return c.Token
		}
	}
	return cands[len(cands)-1].Token
}
