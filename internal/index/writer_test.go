package index

import (
	"ndss/internal/fsio"
	"path/filepath"
	"testing"
)

// Low-level fileWriter contract tests.

func newTestWriter(t *testing.T) *fileWriter {
	t.Helper()
	w, err := newFileWriter(fsio.OS, filepath.Join(t.TempDir(), "f.idx"), 0, 4, 8, newWriteBuffer())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func recs(h uint64, ids ...uint32) []record {
	out := make([]record, len(ids))
	for i, id := range ids {
		out[i] = record{Hash: h, Posting: Posting{TextID: id, L: 0, C: 1, R: 2}}
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

func TestWriterRejectsMixedHashes(t *testing.T) {
	w := newTestWriter(t)
	defer w.abort()
	mixed := append(recs(5, 1), recs(6, 2)...)
	if err := w.addList(5, mixed); err == nil {
		t.Fatal("mixed-hash list should be rejected")
	}
}

func TestWriterRejectsDuplicateHash(t *testing.T) {
	w := newTestWriter(t)
	if err := w.addList(5, recs(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.addList(5, recs(5, 2)); err != nil {
		t.Fatal(err) // the duplicate is detected at finish
	}
	if _, err := w.finish(); err == nil {
		t.Fatal("duplicate hash lists should fail at finish")
	}
}

func TestWriterDoubleFinish(t *testing.T) {
	w := newTestWriter(t)
	if err := w.addList(5, recs(5, 1)); err != nil {
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
	if _, err := newFileWriter(fsio.OS, filepath.Join(t.TempDir(), "f.idx"), 0, 0, 8, newWriteBuffer()); err == nil {
		t.Fatal("zone step 0 should be rejected")
	}
}

func TestWriterZoneMapThreshold(t *testing.T) {
	// Lists at exactly the cutoff get no zone map; one past it does.
	dir := t.TempDir()
	w, err := newFileWriter(fsio.OS, filepath.Join(dir, funcFileName(0)), 0, 2, 3, newWriteBuffer())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.addList(5, recs(5, 1, 2, 3)); err != nil { // == cutoff
		t.Fatal(err)
	}
	if err := w.addList(6, recs(6, 1, 2, 3, 4)); err != nil { // > cutoff
		t.Fatal(err)
	}
	if _, err := w.finish(); err != nil {
		t.Fatal(err)
	}
	ff, err := openFuncFile(fsio.OS, filepath.Join(dir, funcFileName(0)), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.f.Close()
	for i, h := range ff.hashes {
		z, _ := ff.zone(i)
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
	path := filepath.Join(t.TempDir(), "f.idx")
	w, err := newFileWriter(fsio.OS, path, 0, 4, 8, newWriteBuffer())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.addList(5, recs(5, 1)); err != nil {
		t.Fatal(err)
	}
	w.abort()
	if _, err := openFuncFile(fsio.OS, path, 0); err == nil {
		t.Fatal("aborted file should not exist or open")
	}
}
