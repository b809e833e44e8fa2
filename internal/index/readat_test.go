package index

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ndss/internal/corpus"
)

// The I/O counters (index-wide and per-query sink) must record the
// bytes a read actually returned, not the bytes it asked for. A
// truncated inverted file makes ReadAt fail with a short read; the
// counters must match the short count exactly.

func TestReadAtTruncatedFileCountsActualBytes(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 30, MinLength: 30, MaxLength: 80, VocabSize: 25,
		ZipfS: 1.3, Seed: 5, DupRate: 0.5, DupSnippetLen: 15, DupMutateProb: 0.05,
	})
	dir := t.TempDir()
	if _, err := Build(c, dir, BuildOptions{K: 2, Seed: 9, T: 5}); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Pick the last list of function 0 (highest offset) so truncating
	// mid-list leaves the directory of the still-open file readable.
	fn := 0
	ff := ix.segs[0].files[fn]
	var target dirEntry
	for i := range ff.hashes {
		e := ff.entry(i)
		if e.Count > 1 && e.Off >= target.Off {
			target = e
		}
	}
	if target.Count <= 1 {
		t.Fatal("no multi-posting list to truncate")
	}

	// Truncate the open file halfway through the target list. The index
	// holds the file handle, so reads past the new size hit EOF.
	keep := int64(target.Off) + int64(target.Count/2)*postingSize
	if err := os.Truncate(filepath.Join(dir, funcFileName(fn)), keep); err != nil {
		t.Fatal(err)
	}
	wantBytes := keep - int64(target.Off) // what a full-list read can still get

	var sink IOStats
	before := ix.IOStats()
	_, err = ix.ReadListInto(nil, fn, target.Hash, &sink)
	after := ix.IOStats()
	if err == nil {
		t.Fatal("read of truncated list succeeded")
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want EOF-ish error, got %v", err)
	}
	if delta := after.BytesRead - before.BytesRead; delta != wantBytes {
		t.Fatalf("index-wide counter charged %d bytes, file had %d", delta, wantBytes)
	}
	if sink.BytesRead != wantBytes {
		t.Fatalf("per-query sink charged %d bytes, file had %d", sink.BytesRead, wantBytes)
	}
	if sink.BytesRead != after.BytesRead-before.BytesRead {
		t.Fatalf("sink %d != index-wide delta %d", sink.BytesRead, after.BytesRead-before.BytesRead)
	}
}

func TestHasZoneMap(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 30, MinLength: 30, MaxLength: 80, VocabSize: 20,
		ZipfS: 1.3, Seed: 5, DupRate: 0.5, DupSnippetLen: 15, DupMutateProb: 0.05,
	})
	dir := t.TempDir()
	if _, err := Build(c, dir, BuildOptions{K: 2, Seed: 9, T: 5, ZoneMapStep: 4, LongListCutoff: 8}); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	long, short := 0, 0
	for fn := 0; fn < ix.K(); fn++ {
		ff := ix.segs[0].files[fn]
		for i := range ff.hashes {
			e := ff.entry(i)
			got := ix.HasZoneMap(fn, e.Hash)
			if want := e.ZoneCount > 0; got != want {
				t.Fatalf("fn %d hash %x: HasZoneMap %v, ZoneCount %d", fn, e.Hash, got, e.ZoneCount)
			}
			if got {
				long++
			} else {
				short++
			}
			if got != (e.Count > 8) {
				t.Fatalf("fn %d hash %x: zone map presence %v disagrees with cutoff (count %d)",
					fn, e.Hash, got, e.Count)
			}
		}
		if ix.HasZoneMap(fn, 0xdeadbeefdeadbeef) {
			t.Fatal("missing hash reports a zone map")
		}
	}
	if long == 0 || short == 0 {
		t.Fatalf("degenerate fixture: %d zone-mapped, %d plain lists", long, short)
	}
}
