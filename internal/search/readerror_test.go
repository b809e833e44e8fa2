package search

import (
	"context"
	"errors"
	"testing"

	"ndss/internal/fsio"
	"ndss/internal/index"
)

// TestSearchContextSurfacesReadError checks that a failed posting-list
// read inside the staged pipeline — including lists read late through
// the deferral path — reaches the SearchContext caller still wrapped as
// *index.ReadError, so operators can see which file, offset and length
// went bad without grepping logs.
func TestSearchContextSurfacesReadError(t *testing.T) {
	c := smallDupCorpus(30, 60, 120, 150, 42)
	dir := t.TempDir()
	if _, err := index.Build(c, dir, index.BuildOptions{K: 4, Seed: 9, T: 8}); err != nil {
		t.Fatal(err)
	}
	ffs := fsio.NewFaultFS(fsio.OS)
	ix, err := index.OpenFS(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := New(ix, nil)

	q := append([]uint32(nil), c.Text(0)[:30]...)
	opts := Options{Theta: 0.5}
	if _, _, err := s.SearchContext(context.Background(), q, opts); err != nil {
		t.Fatalf("query fails before any fault is armed: %v", err)
	}

	// Sweep the fault offset across the segment file until it lands
	// inside a list this query reads; the exact layout is the index's
	// business, not this test's.
	var gotErr error
	for off := int64(16); off < 1<<20 && gotErr == nil; off += 4 {
		ffs.FailReadAt("seg-", off)
		if _, _, err := s.SearchContext(context.Background(), q, opts); err != nil {
			gotErr = err
		}
		ffs.ClearReadFault()
	}
	if gotErr == nil {
		t.Fatal("no fault offset intersected the query's list reads")
	}

	var re *index.ReadError
	if !errors.As(gotErr, &re) {
		t.Fatalf("SearchContext error does not carry *index.ReadError: %v", gotErr)
	}
	if re.Path == "" || re.Len <= 0 || re.Off < 16 {
		t.Fatalf("ReadError missing context: %+v", re)
	}
	if !errors.Is(gotErr, fsio.ErrInjected) {
		t.Fatalf("underlying injected cause lost through the pipeline: %v", gotErr)
	}

	// The fault is cleared: the same query succeeds again, proving the
	// failure above did not poison pooled query state.
	if _, _, err := s.SearchContext(context.Background(), q, opts); err != nil {
		t.Fatalf("query still failing after fault cleared: %v", err)
	}
}
