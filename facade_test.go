package ndss

import (
	"path/filepath"
	"testing"
)

// Error-path coverage for the public facade.

func TestAttachCorpusFileMissing(t *testing.T) {
	_, dir := publicFixture(t)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AttachCorpusFile(filepath.Join(t.TempDir(), "missing.tok")); err == nil {
		t.Fatal("attaching a missing corpus file should fail")
	}
	// The DB must remain usable after a failed attach.
	texts, _ := publicFixtureTexts(t)
	if _, _, err := db.Search(texts[0][:12], SearchOptions{Theta: 0.9}); err != nil {
		t.Fatalf("search after failed attach: %v", err)
	}
}

// publicFixtureTexts re-derives the fixture corpus (same seed).
func publicFixtureTexts(t *testing.T) ([][]uint32, bool) {
	t.Helper()
	texts, _ := publicFixture(t)
	return texts, true
}

func TestWriteCorpusFileBadPath(t *testing.T) {
	if err := WriteCorpusFile([][]uint32{{1}}, filepath.Join(t.TempDir(), "no", "such", "dir", "c.tok")); err == nil {
		t.Fatal("writing to a missing directory should fail")
	}
}

func TestBuildIndexBadOptions(t *testing.T) {
	if _, err := BuildIndex([][]uint32{{1, 2, 3}}, t.TempDir(), BuildOptions{K: 0, T: 5}); err == nil {
		t.Fatal("K=0 should fail")
	}
	if _, err := BuildIndexFromFile(filepath.Join(t.TempDir(), "missing.tok"), t.TempDir(), BuildOptions{K: 1, T: 5}); err == nil {
		t.Fatal("missing corpus file should fail")
	}
}

func TestSearchBatchFacade(t *testing.T) {
	texts, dir := publicFixture(t)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	queries := [][]uint32{texts[0][:12], texts[1][:12], texts[2][:12]}
	results := db.SearchBatch(queries, SearchOptions{Theta: 0.9}, 2)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		// A verbatim prefix query must at least find its own text.
		found := false
		for _, m := range r.Matches {
			if m.TextID == uint32(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("query %d did not find its own text", i)
		}
	}
}

func TestSearchTopKFacade(t *testing.T) {
	texts, dir := publicFixture(t)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ms, _, err := db.Search(texts[3][:15], SearchOptions{Theta: 0.5, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || len(ms) > 3 {
		t.Fatalf("got %d matches", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Collisions > ms[i-1].Collisions {
			t.Fatal("top-k not sorted by collisions")
		}
	}
}
