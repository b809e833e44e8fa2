package search

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/index"
)

// cancellingReader wraps an IndexReader and cancels a context after a
// given number of list reads, simulating a deadline expiring mid-query.
type cancellingReader struct {
	IndexReader
	cancel     context.CancelFunc
	afterReads int32
	reads      atomic.Int32
}

func (r *cancellingReader) ReadListInto(dst []index.Posting, fn int, h uint64, sink *index.IOStats) ([]index.Posting, error) {
	if r.reads.Add(1) >= r.afterReads {
		r.cancel()
	}
	return r.IndexReader.ReadListInto(dst, fn, h, sink)
}

func TestSearchContextAlreadyCanceled(t *testing.T) {
	c := smallDupCorpus(20, 30, 80, 30, 13)
	ix := buildTestIndex(t, c, 8, 9, 5, 0, 0)
	s := New(ix, c)
	q := c.Text(0)[:12]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := ix.IOStats()
	ms, st, err := s.SearchContext(ctx, q, Options{Theta: 0.5})
	after := ix.IOStats()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ms != nil || st != nil {
		t.Fatalf("canceled query returned results: %v, %v", ms, st)
	}
	if after.BytesRead != before.BytesRead || after.ReadTime != before.ReadTime {
		t.Fatalf("canceled query performed I/O: %+v -> %+v", before, after)
	}
}

func TestSearchContextCanceledMidGather(t *testing.T) {
	c := smallDupCorpus(20, 30, 80, 30, 13)
	ix := buildTestIndex(t, c, 8, 9, 5, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr := &cancellingReader{IndexReader: ix, cancel: cancel, afterReads: 2}
	s := New(cr, c)
	q := c.Text(0)[:12]

	_, _, err := s.SearchContext(ctx, q, Options{Theta: 0.5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The checkpoint before the third read must have stopped the gather:
	// the cancel fired during read 2, so at most 2 of the 8 lists were
	// read.
	if got := cr.reads.Load(); got > 2 {
		t.Fatalf("%d lists read after cancellation (checkpoint skipped)", got)
	}
}

// TestSearchContextCanceledMidMerge: a context cancelled after the
// gather must stop the count stage's merge at its next checkpoint (every
// 1024 candidate texts), not after the lists are exhausted.
func TestSearchContextCanceledMidMerge(t *testing.T) {
	// 4000 copies of one text: every list of the query holds a run of
	// postings for each of them, so the merge has 4000 candidates.
	const copies = 4000
	text := make([]uint32, 12)
	for i := range text {
		text[i] = uint32(i + 1)
	}
	texts := make([][]uint32, copies)
	for i := range texts {
		texts[i] = text
	}
	ix := buildTestIndex(t, corpus.New(texts), 4, 9, 5, 0, 0)
	opts := Options{Theta: 0.5}

	// Through the public entry point: the cancel fires inside the last
	// list read, after gather's last checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr := &cancellingReader{IndexReader: ix, cancel: cancel, afterReads: 4}
	if ms, _, err := New(cr, nil).SearchContext(ctx, text, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (%d matches)", err, len(ms))
	}

	// Stage by stage, counting how far the merge got.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	s := New(ix, nil)
	qc := s.acquireCtx(ctx, opts, 5, 2, &Stats{K: 4, Beta: 2})
	defer s.releaseCtx(qc)
	if err := s.stageSketch(qc, text); err != nil {
		t.Fatal(err)
	}
	s.stagePlan(qc)
	if err := s.stageGather(qc); err != nil {
		t.Fatal(err)
	}
	cancel()
	visited := 0
	err := qc.mergeCandidates(func(uint32) error { visited++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if visited == 0 || visited >= 1024 {
		t.Fatalf("merge visited %d of %d candidates before honoring the cancel, want 1..1023", visited, copies)
	}
}

func TestSearchBatchContextCanceled(t *testing.T) {
	c := smallDupCorpus(20, 30, 80, 30, 13)
	ix := buildTestIndex(t, c, 8, 9, 5, 0, 0)
	s := New(ix, c)
	queries := concurrencyQueries(t, c, 8, 30)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallelism := range []int{1, 4} {
		for i, res := range s.SearchBatchContext(ctx, queries, Options{Theta: 0.5}, parallelism) {
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("parallelism %d query %d: want context.Canceled, got %v", parallelism, i, res.Err)
			}
		}
	}
}

// TestSearchContextBackground: a background context must not change
// results or stats relative to plain Search.
func TestSearchContextBackground(t *testing.T) {
	c := smallDupCorpus(20, 30, 80, 30, 13)
	ix := buildTestIndex(t, c, 8, 9, 5, 4, 10)
	s := New(ix, c)
	q := c.Text(0)[:12]
	opts := Options{Theta: 0.5, PrefixFilter: true, Verify: true}
	wantM, wantSt, err := s.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotM, gotSt, err := s.SearchContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotM) != len(wantM) || gotSt.IOBytes != wantSt.IOBytes || gotSt.ShortLists != wantSt.ShortLists {
		t.Fatalf("context search diverged: %+v vs %+v", gotSt, wantSt)
	}
}
