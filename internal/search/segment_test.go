package search

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
	"ndss/internal/index"
)

// Segment-set equivalence at the search level: a query against an index
// grown by appends and thinned by deletes must return byte-identical
// results — including top-k tie order — before and after compaction.

// splitCorpus carves c into consecutive sub-corpora of the given sizes.
func splitCorpus(c *corpus.Corpus, sizes ...int) []*corpus.Corpus {
	var out []*corpus.Corpus
	id := uint32(0)
	for _, n := range sizes {
		sub := corpus.New(nil)
		for i := 0; i < n; i++ {
			sub.Append(c.Text(id))
			id++
		}
		out = append(out, sub)
	}
	return out
}

type segQueryResult struct {
	matches []Match
	topk    []Match
}

// runSegQueries exercises the searcher across thetas and plan shapes,
// capturing full results (span order, rects, tie-ranked top-k).
func runSegQueries(t *testing.T, s *Searcher, queries [][]uint32) []segQueryResult {
	t.Helper()
	var out []segQueryResult
	for _, q := range queries {
		for _, opts := range []Options{
			{Theta: 0.5},
			{Theta: 0.75, PrefixFilter: true},
			{Theta: 1.0, Verify: true, KeepRects: true},
		} {
			ms, _, err := s.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			tk, _, err := s.SearchTopK(q, TopKOptions{N: 3, FloorTheta: 0.5, Search: Options{PrefixFilter: true}})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, segQueryResult{matches: ms, topk: tk})
		}
	}
	return out
}

func TestSegmentedSearchEquivalence(t *testing.T) {
	const k, seed, tt = 8, 77, 5
	full := smallDupCorpus(24, 20, 60, 40, 123)
	parts := splitCorpus(full, 10, 8, 6)

	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := index.Build(parts[0], dir, index.BuildOptions{K: k, Seed: seed, T: tt, ZoneMapStep: 4, LongListCutoff: 10}); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts[1:] {
		if _, err := index.Append(dir, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := index.Delete(dir, []uint32{2, 13, 20}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	var queries [][]uint32
	for i := 0; i < 4; i++ {
		q, _, _, ok := corpus.PlantQuery(full, 12, 0.15, 40, rng)
		if !ok {
			t.Fatal("PlantQuery failed")
		}
		queries = append(queries, q)
	}

	multi, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if multi.SegmentCount() != 3 {
		t.Fatalf("fixture has %d segments, want 3", multi.SegmentCount())
	}
	sMulti := New(multi, full)
	want := runSegQueries(t, sMulti, queries)

	// A traced query against the multi-segment set attributes its I/O to
	// the segments it read.
	_, st, err := sMulti.Search(queries[0], Options{Theta: 0.5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	segSpans := 0
	for _, sp := range st.Spans {
		if sp.Name == "segment_io" {
			segSpans++
		}
	}
	if segSpans == 0 {
		t.Fatal("traced multi-segment query carries no segment_io spans")
	}
	multi.Close()

	if err := index.Compact(dir); err != nil {
		t.Fatal(err)
	}
	single, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if single.SegmentCount() != 1 {
		t.Fatalf("compacted index has %d segments", single.SegmentCount())
	}
	got := runSegQueries(t, New(single, full), queries)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("compaction changed search results:\nbefore %+v\nafter  %+v", want, got)
	}
}

// TestSegmentedSearchReadFault injects a read fault into one segment of
// a multi-segment index: the query must fail with the read's context
// (never a panic or a partial answer), and succeed identically once the
// fault clears.
func TestSegmentedSearchReadFault(t *testing.T) {
	const k, seed, tt = 8, 77, 5
	full := smallDupCorpus(18, 20, 60, 40, 321)
	parts := splitCorpus(full, 10, 8)

	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := index.Build(parts[0], dir, index.BuildOptions{K: k, Seed: seed, T: tt}); err != nil {
		t.Fatal(err)
	}
	if _, err := index.Append(dir, parts[1]); err != nil {
		t.Fatal(err)
	}
	ffs := fsio.NewFaultFS(fsio.OS).SetCrash(false)
	ix, err := index.OpenFS(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := New(ix, full)

	rng := rand.New(rand.NewSource(5))
	q, _, _, ok := corpus.PlantQuery(full, 12, 0.15, 40, rng)
	if !ok {
		t.Fatal("PlantQuery failed")
	}
	want, _, err := s.Search(q, Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate fixture: planted query has no matches")
	}

	// Fault the appended segment's file at an offset one of the query's
	// list reads covers (which offset that is depends on the corpus, so
	// scan until a read trips).
	appended := filepath.Join(dir, ix.Segments()[1].Name)
	st, err := os.Stat(appended)
	if err != nil {
		t.Fatal(err)
	}
	var faultErr error
	for off := int64(16); off < st.Size() && faultErr == nil; off += 16 {
		ffs.FailReadAt(appended, off)
		_, _, faultErr = s.Search(q, Options{Theta: 0.5})
	}
	if faultErr == nil {
		t.Fatal("no query read covered any faulted offset of the appended segment")
	}
	var re *index.ReadError
	if !errors.As(faultErr, &re) {
		t.Fatalf("fault did not surface as a ReadError: %v", faultErr)
	}

	ffs.ClearReadFault()
	got, _, err := s.Search(q, Options{Theta: 0.5})
	if err != nil {
		t.Fatalf("search after fault cleared: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("results changed after fault recovery:\nbefore %+v\nafter  %+v", want, got)
	}
}
