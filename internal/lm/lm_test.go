package lm

import (
	"math/rand"
	"reflect"
	"testing"

	"ndss/internal/corpus"
)

func trainOn(t *testing.T, texts [][]uint32, cfg Config) *Model {
	t.Helper()
	m, err := Train(corpus.New(texts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(corpus.New(nil), Config{Order: 0}); err == nil {
		t.Fatal("Order=0 should fail")
	}
}

func TestNextDistributionBackoff(t *testing.T) {
	// Text: 1 2 3 1 2 4 — after context (1,2) both 3 and 4 occur.
	m := trainOn(t, [][]uint32{{1, 2, 3, 1, 2, 4}}, Config{Order: 3})
	cands := m.NextDistribution([]uint32{1, 2})
	if len(cands) != 2 {
		t.Fatalf("cands = %+v", cands)
	}
	// Counts equal: tie broken by token id.
	if cands[0].Token != 3 || cands[1].Token != 4 {
		t.Fatalf("cands = %+v", cands)
	}
	// Unknown bigram context backs off to unigram distribution.
	off := m.NextDistribution([]uint32{99, 98})
	if len(off) == 0 {
		t.Fatal("backoff to root failed")
	}
	// Root context: all five distinct tokens seen.
	root := m.NextDistribution(nil)
	if len(root) != 4 {
		t.Fatalf("root cands = %+v", root)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	// 1 is followed by 2 twice and by 3 once: greedy must pick 2.
	m := trainOn(t, [][]uint32{{1, 2, 1, 2, 1, 3}}, Config{Order: 2})
	cands := m.NextDistribution([]uint32{1})
	if got := (Greedy{}).Pick(cands, nil); got != 2 {
		t.Fatalf("greedy picked %d", got)
	}
}

func TestGenerateReproducesChain(t *testing.T) {
	// A deterministic chain: every token has a unique successor, so any
	// sampler regenerates the training text.
	text := []uint32{10, 11, 12, 13, 14, 15, 16, 17}
	m := trainOn(t, [][]uint32{text}, Config{Order: 2})
	rng := rand.New(rand.NewSource(1))
	got := m.Generate([]uint32{10}, 7, TopK{K: 50}, rng)
	if !reflect.DeepEqual(got, text[1:]) {
		t.Fatalf("generate = %v, want %v", got, text[1:])
	}
}

func TestGenerateUnprompted(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 30, MinLength: 50, MaxLength: 100, VocabSize: 100, ZipfS: 1.3, Seed: 4,
	})
	m, err := Train(c, Config{Order: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	out := m.Generate(nil, 64, TopK{K: 10}, rng)
	if len(out) != 64 {
		t.Fatalf("generated %d tokens", len(out))
	}
}

func TestGenerateEmptyModel(t *testing.T) {
	m := trainOn(t, nil, Config{Order: 2})
	if out := m.Generate(nil, 10, Greedy{}, nil); len(out) != 0 {
		t.Fatalf("empty model generated %v", out)
	}
}

func TestCapacityPruning(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 20, MinLength: 50, MaxLength: 80, VocabSize: 50, ZipfS: 1.2, Seed: 9,
	})
	full, err := Train(c, Config{Order: 3})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Train(c, Config{Order: 3, MaxContexts: 50})
	if err != nil {
		t.Fatal(err)
	}
	if small.NumContexts() != 50 {
		t.Fatalf("pruned model has %d contexts, want 50", small.NumContexts())
	}
	if full.NumContexts() <= 50 {
		t.Fatalf("full model only has %d contexts", full.NumContexts())
	}
	// Root context must survive pruning even with a tiny budget.
	tiny, err := Train(c, Config{Order: 3, MaxContexts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiny.NextDistribution(nil); len(got) == 0 {
		t.Fatal("root context pruned away")
	}
}

// TestCapacityIncreasesMemorization is the core substitution property:
// a larger-capacity model reproduces longer training spans verbatim.
func TestCapacityIncreasesMemorization(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 80, MaxLength: 150, VocabSize: 2000, ZipfS: 1.5, Seed: 31,
		DupRate: 0.3, DupSnippetLen: 40, DupMutateProb: 0,
	})
	score := func(m *Model, seed int64) int {
		// Count generated 8-gram hits in the training corpus.
		rng := rand.New(rand.NewSource(seed))
		hits := 0
		grams := map[[8]uint32]bool{}
		for id := 0; id < c.NumTexts(); id++ {
			text := c.Text(uint32(id))
			for i := 0; i+8 <= len(text); i++ {
				var g [8]uint32
				copy(g[:], text[i:i+8])
				grams[g] = true
			}
		}
		for trial := 0; trial < 20; trial++ {
			out := m.Generate(nil, 64, TopK{K: 20}, rng)
			for i := 0; i+8 <= len(out); i++ {
				var g [8]uint32
				copy(g[:], out[i:i+8])
				if grams[g] {
					hits++
				}
			}
		}
		return hits
	}
	big, err := Train(c, Config{Order: 5})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Train(c, Config{Order: 2})
	if err != nil {
		t.Fatal(err)
	}
	bigHits := score(big, 7)
	smallHits := score(small, 7)
	if bigHits <= smallHits {
		t.Fatalf("larger model should memorize more: big=%d small=%d", bigHits, smallHits)
	}
}

func TestTopKRestrictsSupport(t *testing.T) {
	cands := []Cand{{Token: 1, Count: 100}, {Token: 2, Count: 50}, {Token: 3, Count: 1}}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if got := (TopK{K: 2}).Pick(cands, rng); got == 3 {
			t.Fatal("top-2 sampled outside the top 2")
		}
	}
	// K larger than candidates is clamped.
	seen := map[uint32]bool{}
	for i := 0; i < 500; i++ {
		seen[(TopK{K: 10}).Pick(cands, rng)] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatal("clamped top-k missed likely tokens")
	}
}

func TestTopPNucleus(t *testing.T) {
	cands := []Cand{{Token: 1, Count: 90}, {Token: 2, Count: 9}, {Token: 3, Count: 1}}
	rng := rand.New(rand.NewSource(6))
	// P=0.9: nucleus is exactly {1}.
	for i := 0; i < 100; i++ {
		if got := (TopP{P: 0.9}).Pick(cands, rng); got != 1 {
			t.Fatalf("nucleus sampling picked %d", got)
		}
	}
	// P=1 (and invalid P) use the full distribution.
	seen := map[uint32]bool{}
	for i := 0; i < 2000; i++ {
		seen[(TopP{P: 0}).Pick(cands, rng)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("full nucleus saw %d tokens", len(seen))
	}
}

func TestRandomSamplerProportions(t *testing.T) {
	cands := []Cand{{Token: 1, Count: 900}, {Token: 2, Count: 100}}
	rng := rand.New(rand.NewSource(7))
	count1 := 0
	for i := 0; i < 5000; i++ {
		if (Random{}).Pick(cands, rng) == 1 {
			count1++
		}
	}
	frac := float64(count1) / 5000
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("token 1 sampled %.3f of the time, want ~0.9", frac)
	}
}

// TestCapacityFitsTrainingText: Fig 4's four model sizes are ordered by
// capacity, and a larger one predicts its training text better. The
// count is of positions where the greedy next token is the text's own
// (one position at a time, each from the true prefix), summed over the
// first texts of the corpus.
func TestCapacityFitsTrainingText(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 50, MinLength: 100, MaxLength: 200, VocabSize: 500,
		ZipfS: 1.3, Seed: 9,
	})
	hits := func(cfg Config) int {
		m, err := Train(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for id := uint32(0); id < 5; id++ {
			text := c.Text(id)
			for i := range text {
				if cands := m.NextDistribution(text[:i]); len(cands) > 0 && (Greedy{}).Pick(cands, nil) == text[i] {
					n++
				}
			}
		}
		return n
	}
	sizes := []Config{{Order: 3, MaxContexts: 300}, {Order: 3}, {Order: 4}, {Order: 5}}
	prev := -1
	for _, cfg := range sizes {
		n := hits(cfg)
		t.Logf("%+v: %d greedy hits", cfg, n)
		if n <= prev {
			t.Errorf("%+v predicts %d training tokens, the next smaller model %d: capacity must help", cfg, n, prev)
		}
		prev = n
	}
}
