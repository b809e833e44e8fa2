package search

import (
	"reflect"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/hash"
)

// Edge-case coverage for the query path beyond the randomized oracle
// tests in search_test.go.

func TestSearchQueryWithUnknownTokens(t *testing.T) {
	c := corpus.New([][]uint32{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	})
	ix := buildTestIndex(t, c, 8, 1, 5, 0, 0)
	s := New(ix, c)
	// Tokens never seen in the corpus: sketches can't collide.
	q := []uint32{1000, 1001, 1002, 1003, 1004, 1005}
	ms, st, err := s.Search(q, Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("unknown-token query matched: %+v", ms)
	}
	if st.Candidates != 0 {
		t.Fatalf("candidates = %d", st.Candidates)
	}
}

func TestSearchBetaOne(t *testing.T) {
	// Theta small enough that a single collision qualifies: every text
	// sharing any min-hash with the query is scanned. Exercises alpha=1
	// paths.
	c := smallDupCorpus(10, 20, 40, 20, 55)
	ix := buildTestIndex(t, c, 4, 3, 5, 0, 0)
	s := New(ix, c)
	q := c.Text(0)[:10]
	ms, st, err := s.Search(q, Options{Theta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if st.Beta != 1 {
		t.Fatalf("Beta = %d, want 1", st.Beta)
	}
	if len(ms) == 0 {
		t.Fatal("beta=1 self-query found nothing")
	}
}

func TestSearchIdenticalTexts(t *testing.T) {
	// The same text stored under three ids: a hit must be reported for
	// each id independently.
	text := []uint32{10, 20, 30, 40, 50, 60, 70, 80}
	c := corpus.New([][]uint32{text, text, text})
	ix := buildTestIndex(t, c, 8, 5, 5, 0, 0)
	s := New(ix, c)
	ms, _, err := s.Search(text, Options{Theta: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint32]bool{}
	for _, m := range ms {
		ids[m.TextID] = true
	}
	if len(ids) != 3 {
		t.Fatalf("found %d of 3 identical texts: %+v", len(ids), ms)
	}
}

func TestSearchSingleTokenRepeated(t *testing.T) {
	// A text of one repeated token has distinct-set {tok}; a query of
	// that token sequence has Jaccard 1 with every window.
	c := corpus.New([][]uint32{
		{7, 7, 7, 7, 7, 7, 7, 7},
		{1, 2, 3, 4, 5, 6, 7, 8},
	})
	ix := buildTestIndex(t, c, 8, 9, 4, 0, 0)
	s := New(ix, c)
	q := []uint32{7, 7, 7, 7}
	ms, _, err := s.Search(q, Options{Theta: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.TextID == 0 {
			found = true
			if m.Start != 0 || m.End != 7 {
				t.Fatalf("span = [%d, %d], want [0, 7]", m.Start, m.End)
			}
		}
	}
	if !found {
		t.Fatalf("repeated-token text not matched: %+v", ms)
	}
}

func TestSearchQueryLongerThanTexts(t *testing.T) {
	c := corpus.New([][]uint32{
		{1, 2, 3, 4, 5, 6},
	})
	ix := buildTestIndex(t, c, 4, 2, 5, 0, 0)
	s := New(ix, c)
	q := make([]uint32, 100)
	for i := range q {
		q[i] = uint32(i)
	}
	// The query's distinct set is huge; the 6-token text windows cannot
	// reach high similarity, but the search must not error.
	ms, _, err := s.Search(q, Options{Theta: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("matched: %+v", ms)
	}
}

// TestSearchMergedSpansDisjoint asserts the paper's reporting rule: all
// reported spans of one text are pairwise disjoint.
func TestSearchMergedSpansDisjoint(t *testing.T) {
	c := smallDupCorpus(25, 30, 80, 25, 77)
	ix := buildTestIndex(t, c, 8, 7, 5, 0, 0)
	s := New(ix, c)
	for trial := 0; trial < 10; trial++ {
		q := c.Text(uint32(trial))[:12]
		ms, _, err := s.Search(q, Options{Theta: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		byText := map[uint32][]Match{}
		for _, m := range ms {
			byText[m.TextID] = append(byText[m.TextID], m)
		}
		for id, list := range byText {
			for i := 1; i < len(list); i++ {
				if list[i].Start <= list[i-1].End {
					t.Fatalf("text %d spans overlap: %+v", id, list)
				}
			}
		}
	}
}

// TestSearchRectsConsistentWithSpan: with KeepRects, every rect must lie
// inside its match span and carry at least beta collisions.
func TestSearchRectsConsistentWithSpan(t *testing.T) {
	c := smallDupCorpus(20, 30, 70, 30, 88)
	ix := buildTestIndex(t, c, 8, 11, 5, 0, 0)
	s := New(ix, c)
	q := c.Text(3)[5:20]
	ms, st, err := s.Search(q, Options{Theta: 0.5, KeepRects: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if len(m.Rects) == 0 {
			t.Fatal("no rects kept")
		}
		for _, r := range m.Rects {
			if r.ILo < m.Start || r.JHi > m.End {
				t.Fatalf("rect %+v outside span [%d, %d]", r, m.Start, m.End)
			}
			if r.Count < st.Beta {
				t.Fatalf("kept rect with %d < beta %d collisions", r.Count, st.Beta)
			}
		}
	}
}

// TestEstimateConsistency: EstJaccard of each match must equal the best
// rect's collision fraction, and a full sketch comparison of the best
// core sequence must agree.
func TestEstimateConsistency(t *testing.T) {
	const k = 16
	c := smallDupCorpus(15, 25, 60, 30, 99)
	ix := buildTestIndex(t, c, k, 13, 5, 0, 0)
	fam := hash.MustNewFamily(k, 13)
	s := New(ix, c)
	q := c.Text(2)[3:18]
	qs, _ := fam.Sketch(q)
	ms, _, err := s.Search(q, Options{Theta: 0.5, KeepRects: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		for _, r := range m.Rects {
			// Any sequence inside the rect collides exactly r.Count
			// times.
			i, j := r.ILo, r.JLo
			if need := i + 4; j < need { // t=5 -> length 5
				j = need
			}
			if j > r.JHi {
				continue
			}
			seq := c.Text(m.TextID)[i : j+1]
			ss, _ := fam.Sketch(seq)
			if got := hash.Collisions(qs, ss); got != r.Count {
				t.Fatalf("sequence [%d,%d] collides %d, rect says %d", i, j, got, r.Count)
			}
		}
	}
}

// TestZoneMapEndToEndWithManyTexts exercises the long-list probe path on
// a corpus crafted so one token dominates (one very long inverted list).
func TestZoneMapEndToEndWithManyTexts(t *testing.T) {
	texts := make([][]uint32, 120)
	for i := range texts {
		texts[i] = make([]uint32, 40)
		for j := range texts[i] {
			// token 0 is everywhere; the rest vary per text.
			if j%4 == 0 {
				texts[i][j] = 0
			} else {
				texts[i][j] = uint32(1 + (i*40+j)%50)
			}
		}
	}
	c := corpus.New(texts)
	ix := buildTestIndex(t, c, 8, 15, 5, 4, 16)
	s := New(ix, c)
	q := texts[60][10:30]
	base, _, err := s.Search(q, Options{Theta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	filtered, st, err := s.Search(q, Options{Theta: 0.8, PrefixFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.LongLists == 0 {
		t.Skip("no long lists under this configuration")
	}
	if !reflect.DeepEqual(matchesToSpans(base), matchesToSpans(filtered)) {
		t.Fatalf("prefix-filtered result differs:\nbase %v\nfilt %v",
			matchesToSpans(base), matchesToSpans(filtered))
	}
}
