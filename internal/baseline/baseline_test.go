package baseline

import (
	"math/rand"
	"reflect"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/hash"
	"ndss/internal/search"
)

func dupCorpus(seed int64) *corpus.Corpus {
	return corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts:      15,
		MinLength:     20,
		MaxLength:     60,
		VocabSize:     40,
		ZipfS:         1.3,
		Seed:          seed,
		DupRate:       0.5,
		DupSnippetLen: 20,
		DupMutateProb: 0.05,
	})
}

func TestMinHashScanFindsExactCopy(t *testing.T) {
	c := corpus.New([][]uint32{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{100, 101, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 200},
	})
	fam := hash.MustNewFamily(16, 3)
	q := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	spans := MinHashScan(c, fam, q, 1.0, 5)
	foundText0, foundText1 := false, false
	for _, s := range spans {
		if s.TextID == 0 {
			foundText0 = true
		}
		if s.TextID == 1 && s.Start <= 2 && s.End >= 11 {
			foundText1 = true
		}
	}
	if !foundText0 || !foundText1 {
		t.Fatalf("exact copies not found: %+v", spans)
	}
}

func TestTrueJaccardScan(t *testing.T) {
	c := corpus.New([][]uint32{
		{1, 2, 3, 4, 5, 99, 98, 97, 96, 95},
	})
	q := []uint32{1, 2, 3, 4, 5}
	// The prefix [0,4] equals the query: Jaccard 1.
	spans := TrueJaccardScan(c, q, 1.0, 5)
	if len(spans) != 1 || spans[0].Start != 0 || spans[0].End < 4 {
		t.Fatalf("spans = %+v", spans)
	}
	// Lower threshold: longer sequences qualify too.
	loose := TrueJaccardScan(c, q, 0.5, 5)
	if len(loose) != 1 || loose[0].End <= spans[0].End {
		t.Fatalf("loose spans = %+v", loose)
	}
	// Impossible threshold over disjoint tokens.
	if got := TrueJaccardScan(c, []uint32{500, 501, 502, 503, 504}, 0.5, 5); got != nil {
		t.Fatalf("disjoint query matched: %+v", got)
	}
}

func TestTrueJaccardScanIncrementalMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := dupCorpus(7)
	for trial := 0; trial < 5; trial++ {
		q, _, _, ok := corpus.PlantQuery(c, 12, 0.2, 40, rng)
		if !ok {
			t.Fatal("PlantQuery failed")
		}
		theta := 0.6
		tt := 5
		spans := TrueJaccardScan(c, q, theta, tt)
		// Re-verify each merged span contains at least one qualifying
		// sequence by direct recomputation.
		for _, s := range spans {
			text := c.Text(s.TextID)
			found := false
			for i := s.Start; i <= s.End && !found; i++ {
				for j := i + int32(tt) - 1; j <= s.End && !found; j++ {
					if hash.DistinctJaccard(q, text[i:j+1]) >= theta {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("span %+v holds no qualifying sequence", s)
			}
		}
	}
}

func TestExactIndexLookup(t *testing.T) {
	c := corpus.New([][]uint32{
		{5, 6, 7, 8, 9},
		{1, 5, 6, 7, 2},
		{5, 6, 7, 5, 6, 7},
	})
	e := NewExactIndex(c)
	locs := e.Lookup([]uint32{5, 6, 7}, 0)
	want := []Location{{0, 0}, {1, 1}, {2, 0}, {2, 3}}
	if !reflect.DeepEqual(locs, want) {
		t.Fatalf("locs = %+v, want %+v", locs, want)
	}
	if !e.Contains([]uint32{7, 8, 9}) {
		t.Fatal("suffix not found")
	}
	if e.Contains([]uint32{9, 1}) {
		t.Fatal("cross-text match reported")
	}
	if e.Contains([]uint32{42}) {
		t.Fatal("absent token found")
	}
	if got := e.Lookup(nil, 0); got != nil {
		t.Fatal("empty query should find nothing")
	}
	if got := e.Lookup([]uint32{5, 6, 7}, 2); len(got) != 2 {
		t.Fatalf("maxHits ignored: %d", len(got))
	}
}

func TestExactIndexMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := dupCorpus(21)
	e := NewExactIndex(c)
	for trial := 0; trial < 20; trial++ {
		// Half the queries are planted (guaranteed present).
		var q []uint32
		if trial%2 == 0 {
			var ok bool
			q, _, _, ok = corpus.PlantQuery(c, 8, 0, 40, rng)
			if !ok {
				t.Fatal("plant failed")
			}
		} else {
			q = make([]uint32, 8)
			for i := range q {
				q[i] = uint32(rng.Intn(40))
			}
		}
		var want []Location
		for id := 0; id < c.NumTexts(); id++ {
			text := c.Text(uint32(id))
		posLoop:
			for i := 0; i+len(q) <= len(text); i++ {
				for j := range q {
					if text[i+j] != q[j] {
						continue posLoop
					}
				}
				want = append(want, Location{TextID: uint32(id), Pos: int32(i)})
			}
		}
		got := e.Lookup(q, 0)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: got %+v, want %+v", trial, got, want)
		}
	}
}

func TestSeedExtendFindsExactCopies(t *testing.T) {
	c := dupCorpus(33)
	se := NewSeedExtend(c, 6)
	rng := rand.New(rand.NewSource(2))
	q, srcID, srcStart, ok := corpus.PlantQuery(c, 15, 0, 40, rng)
	if !ok {
		t.Fatal("plant failed")
	}
	spans := se.Search(q, 0.9, 5)
	found := false
	for _, s := range spans {
		if s.TextID == srcID && s.Start <= srcStart && srcStart <= s.End {
			found = true
		}
	}
	if !found {
		t.Fatalf("seed-and-extend missed an exact copy at text %d pos %d: %+v", srcID, srcStart, spans)
	}
}

func TestSeedExtendNoGuarantee(t *testing.T) {
	// A near-duplicate with every w-gram broken is invisible to
	// seed-and-extend but has high Jaccard: demonstrate the recall gap
	// that motivates the paper's guaranteed algorithm.
	text := make([]uint32, 24)
	for i := range text {
		text[i] = uint32(i + 10)
	}
	c := corpus.New([][]uint32{text})
	// Query: same token SET but reordered so no 4 consecutive tokens of
	// the text appear in order.
	q := make([]uint32, len(text))
	for i, p := range rand.New(rand.NewSource(9)).Perm(len(text)) {
		q[i] = text[p]
	}
	se := NewSeedExtend(c, 4)
	if got := se.Search(q, 0.9, 5); len(got) != 0 {
		// A lucky seed may survive the permutation; only fail when the
		// permutation truly broke all seeds.
		t.Logf("permutation left a seed intact: %+v", got)
	}
	// True Jaccard search finds it: identical token sets.
	spans := TrueJaccardScan(c, q, 0.9, 5)
	if len(spans) == 0 {
		t.Fatal("true Jaccard scan should find the permuted duplicate")
	}
}

func TestSeedExtendShortQuery(t *testing.T) {
	c := dupCorpus(41)
	se := NewSeedExtend(c, 8)
	if got := se.Search([]uint32{1, 2, 3}, 0.5, 2); got != nil {
		t.Fatalf("query shorter than seed width matched: %+v", got)
	}
}

func TestFingerprintOrderSensitive(t *testing.T) {
	a := fingerprint([]uint32{1, 2, 3})
	b := fingerprint([]uint32{3, 2, 1})
	if a == b {
		t.Fatal("fingerprint should be order-sensitive")
	}
	if a != fingerprint([]uint32{1, 2, 3}) {
		t.Fatal("fingerprint not deterministic")
	}
}

// TrueJaccardScan answers Definition 1 by brute force: sequences whose
// exact distinct Jaccard similarity with the query is >= theta, merged
// per text. It maintains the intersection/union sizes incrementally
// while extending the sequence end. O(n^2) per text.
func TrueJaccardScan(c *corpus.Corpus, query []uint32, theta float64, t int) []Span {
	qset := make(map[uint32]bool, len(query))
	for _, tok := range query {
		qset[tok] = true
	}
	qDistinct := len(qset)
	var out []Span
	for id := 0; id < c.NumTexts(); id++ {
		text := c.Text(uint32(id))
		var qualifying []search.Interval
		counts := make(map[uint32]int)
		for i := 0; i < len(text); i++ {
			clear(counts)
			inter, extra := 0, 0 // |S ∩ Q|, |S \ Q| over distinct tokens
			for j := i; j < len(text); j++ {
				tok := text[j]
				if counts[tok] == 0 {
					if qset[tok] {
						inter++
					} else {
						extra++
					}
				}
				counts[tok]++
				if j-i+1 < t {
					continue
				}
				union := qDistinct + extra
				if float64(inter) >= theta*float64(union) {
					qualifying = append(qualifying, search.Interval{Lo: int32(i), Hi: int32(j)})
				}
			}
		}
		out = appendMergedSpans(out, uint32(id), qualifying)
	}
	return out
}
