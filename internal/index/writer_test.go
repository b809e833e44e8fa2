package index

import (
	"ndss/internal/fsio"
	"path/filepath"
	"testing"
)

// Low-level segmentWriter contract tests.

func newTestWriter(t *testing.T) *segmentWriter {
	t.Helper()
	w, err := newSegmentWriter(fsio.OS, filepath.Join(t.TempDir(), segmentName(0)), 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// listOf returns a list of one posting per text id.
func listOf(ids ...uint32) []Posting {
	out := make([]Posting, len(ids))
	for i, id := range ids {
		out[i] = Posting{TextID: id, L: 0, C: 1, R: 2}
	}
	return out
}

func TestWriterRejectsEmptyList(t *testing.T) {
	w := newTestWriter(t)
	defer w.abort()
	if err := w.addList(5, nil); err == nil {
		t.Fatal("empty list should be rejected")
	}
}

func TestWriterRejectsDuplicateHash(t *testing.T) {
	w := newTestWriter(t)
	if err := w.addList(5, listOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.addList(5, listOf(2)); err != nil {
		t.Fatal(err) // the duplicate is detected at endFunc
	}
	if err := w.endFunc(); err == nil {
		t.Fatal("duplicate hash lists should fail at endFunc")
	}
}

func TestWriterDoubleFinish(t *testing.T) {
	w := newTestWriter(t)
	if err := w.addList(5, listOf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.finish(); err == nil {
		t.Fatal("finish before the last function ended should fail")
	}
	w = newTestWriter(t)
	if err := w.addList(5, listOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.endFunc(); err != nil {
		t.Fatal(err)
	}
	if err := w.endFunc(); err == nil {
		t.Fatal("ending more functions than the file holds should fail")
	}
	w = newTestWriter(t)
	if err := w.addList(5, listOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.endFunc(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.finish(); err == nil {
		t.Fatal("second finish should fail")
	}
}

func TestWriterInvalidZoneStep(t *testing.T) {
	if _, err := newSegmentWriter(fsio.OS, filepath.Join(t.TempDir(), segmentName(0)), 1, 0, 8); err == nil {
		t.Fatal("zone step 0 should be rejected")
	}
	if _, err := newSegmentWriter(fsio.OS, filepath.Join(t.TempDir(), segmentName(0)), 1, 4, -1); err == nil {
		t.Fatal("a negative long-list cutoff, which the header cannot hold, should be rejected")
	}
}

func TestWriterZoneMapThreshold(t *testing.T) {
	// Lists at exactly the cutoff get no zone map; one past it does.
	path := filepath.Join(t.TempDir(), segmentName(0))
	w, err := newSegmentWriter(fsio.OS, path, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.addList(5, listOf(1, 2, 3)); err != nil { // == cutoff
		t.Fatal(err)
	}
	if err := w.addList(6, listOf(1, 2, 3, 4)); err != nil { // > cutoff
		t.Fatal(err)
	}
	if err := w.endFunc(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.finish(); err != nil {
		t.Fatal(err)
	}
	seg, err := openSegmentFile(fsio.OS, path, Meta{K: 1, ZoneMapStep: 2, LongListCutoff: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.release()
	ff := seg.funcs[0]
	for i, h := range ff.hashes {
		var z zoneRef
		if at, ok := ff.zonePos(i); ok {
			z = ff.zones[at]
		}
		switch h {
		case 5:
			if z.count != 0 {
				t.Fatalf("cutoff-sized list got %d zones", z.count)
			}
		case 6:
			if z.count != 2 { // 4 postings / step 2
				t.Fatalf("long list got %d zones, want 2", z.count)
			}
		}
	}
}

func TestWriterAbortRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), segmentName(0))
	w, err := newSegmentWriter(fsio.OS, path, 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.addList(5, listOf(1)); err != nil {
		t.Fatal(err)
	}
	w.abort()
	if _, err := openSegmentFile(fsio.OS, path, Meta{K: 1, ZoneMapStep: 4, LongListCutoff: 8}); err == nil {
		t.Fatal("aborted file should not exist or open")
	}
}
