package search

import (
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/index"
)

// TestSearchEmptyIndex: an index over an empty corpus answers queries
// with no matches and no errors, with and without prefix filtering.
func TestSearchEmptyIndex(t *testing.T) {
	dir := t.TempDir()
	if _, err := index.Build(corpus.New(nil), dir, index.BuildOptions{K: 4, Seed: 1, T: 5}); err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.TotalPostings() != 0 {
		t.Fatalf("empty corpus produced %d postings", ix.TotalPostings())
	}
	s := New(ix, nil)
	for _, opts := range []Options{
		{Theta: 0.8},
		{Theta: 0.8, PrefixFilter: true},
	} {
		ms, st, err := s.Search([]uint32{1, 2, 3, 4, 5, 6}, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if len(ms) != 0 || st.Candidates != 0 {
			t.Fatalf("opts %+v: matches=%v stats=%+v", opts, ms, st)
		}
	}
}

// TestSearchIndexOfOnlyShortTexts: every text below the length
// threshold produces an index with no lists.
func TestSearchIndexOfOnlyShortTexts(t *testing.T) {
	c := corpus.New([][]uint32{{1, 2}, {3}, {4, 5, 6}})
	dir := t.TempDir()
	if _, err := index.Build(c, dir, index.BuildOptions{K: 2, Seed: 1, T: 10}); err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := New(ix, c)
	ms, _, err := s.Search([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("matches from unindexable corpus: %+v", ms)
	}
}
