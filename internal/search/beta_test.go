package search_test

import (
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"ndss/internal/baseline"
	"ndss/internal/corpus"
	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/search"
)

// betaRoundingPairs are every (k ≤ 128, θ ∈ {0.01, …, 1.00}) where
// math.Ceil(k*θ) rounds one above the least b with b/k ≥ θ: the float
// product lands just past an integer (100*0.55 = 55.00000000000001).
// There a span with b collisions reports EstJaccard = b/k ≥ θ, so β
// must be b for the reported estimate and the threshold to agree.
var betaRoundingPairs = []struct {
	k     int
	theta float64
	beta  int
}{
	{25, 0.28, 7}, {25, 0.56, 14},
	{50, 0.14, 7}, {50, 0.28, 14}, {50, 0.56, 28},
	{75, 0.28, 21}, {75, 0.56, 42}, {75, 0.68, 51},
	{100, 0.07, 7}, {100, 0.14, 14}, {100, 0.28, 28}, {100, 0.55, 55}, {100, 0.56, 56},
}

// TestBetaIsLeastQualifyingCount: Stats.Beta at each rounding pair is
// the least collision count whose EstJaccard reaches θ.
func TestBetaIsLeastQualifyingCount(t *testing.T) {
	c := corpus.New([][]uint32{{1, 2, 3, 4, 5, 6, 7, 8}})
	searchers := map[int]*search.Searcher{}
	for _, p := range betaRoundingPairs {
		s, ok := searchers[p.k]
		if !ok {
			dir := filepath.Join(t.TempDir(), strconv.Itoa(p.k))
			if _, err := index.Build(c, dir, index.BuildOptions{K: p.k, Seed: 5, T: 4}); err != nil {
				t.Fatal(err)
			}
			ix, err := index.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ix.Close() })
			s = search.New(ix, nil)
			searchers[p.k] = s
		}
		_, st, err := s.Search([]uint32{1, 2, 3, 4}, search.Options{Theta: p.theta})
		if err != nil {
			t.Fatal(err)
		}
		if st.Beta != p.beta {
			t.Errorf("k=%d θ=%v: beta %d, want %d (%d/%d = %v ≥ θ)", p.k, p.theta, st.Beta, p.beta, p.beta, p.k, float64(p.beta)/float64(p.k))
		}
	}
}

// TestBetaBoundaryMatchesBruteForce holds the engine to the Definition-2
// brute force at k=25, θ=0.56, where β is 14 = 0.56·25 exactly: spans
// with exactly 14 collisions qualify on both sides.
func TestBetaBoundaryMatchesBruteForce(t *testing.T) {
	const k, seed, tt, theta = 25, 3, 8, 0.56
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 30, MinLength: 30, MaxLength: 70, VocabSize: 60,
		ZipfS: 1.2, Seed: 9, DupRate: 0.6, DupSnippetLen: 24, DupMutateProb: 0.15,
	})
	dir := t.TempDir()
	if _, err := index.Build(c, dir, index.BuildOptions{K: k, Seed: seed, T: tt}); err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := search.New(ix, nil)
	fam := hash.MustNewFamily(k, seed)
	boundary := 0
	for id := uint32(0); id < uint32(c.NumTexts()); id += 3 {
		q := c.Text(id)[:20]
		ms, st, err := s.Search(q, search.Options{Theta: theta})
		if err != nil {
			t.Fatal(err)
		}
		if st.Beta != 14 {
			t.Fatalf("beta %d, want 14", st.Beta)
		}
		var got []baseline.Span
		for _, m := range ms {
			got = append(got, baseline.Span{TextID: m.TextID, Start: m.Start, End: m.End})
			if m.Collisions == st.Beta {
				boundary++
			}
		}
		if want := baseline.MinHashScan(c, fam, q, theta, tt); !slices.Equal(got, want) {
			t.Fatalf("query from text %d: engine %v, brute force %v", id, got, want)
		}
	}
	if boundary == 0 {
		t.Fatal("no match sits at exactly beta collisions; the fixture does not reach the boundary")
	}
}
