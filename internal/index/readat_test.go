package index

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
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

	// Pick the last list of function 0 and truncate the still-open
	// segment file in the middle of it: the resident directory keeps
	// pointing past the new end.
	fn := 0
	ff := ix.segs[0].funcs[fn]
	target := -1
	for i := range ff.hashes {
		if ff.count(i) > 1 {
			target = i
		}
	}
	if target < 0 {
		t.Fatal("no multi-posting list to truncate")
	}
	off := ff.off(target)

	// Truncate the open file halfway through the target list. The index
	// holds the file handle, so reads past the new size hit EOF.
	keep := off + int64(ff.count(target)/2)*postingSize
	if err := os.Truncate(ff.path, keep); err != nil {
		t.Fatal(err)
	}
	wantBytes := keep - off // what a full-list read can still get

	// The failed read must hand dst back at its old length, earlier
	// contents intact, whatever landed in its spare capacity.
	prior := []Posting{{TextID: 7, L: 1, C: 2, R: 3}, {TextID: 9, L: 4, C: 5, R: 6}}
	dst := append(make([]Posting, 0, 64), prior...)
	var sink IOStats
	before := ix.IOStats()
	got, err := ix.ReadListInto(dst, fn, ff.hashes[target], &sink)
	after := ix.IOStats()
	if err == nil {
		t.Fatal("read of truncated list succeeded")
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want EOF-ish error, got %v", err)
	}
	if !slices.Equal(got, prior) {
		t.Fatalf("failed read returned dst %v, want it unchanged at %v", got, prior)
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

// shiftedCorpus copies c with every token id moved up by delta, so its
// lists share no hash with a corpus over the original vocabulary.
func shiftedCorpus(c *corpus.Corpus, delta uint32) *corpus.Corpus {
	out := corpus.New(nil)
	for id := 0; id < c.NumTexts(); id++ {
		text := slices.Clone(c.Text(uint32(id)))
		for i := range text {
			text[i] += delta
		}
		out.Append(text)
	}
	return out
}

// TestHasZoneMap pins the per-(list, segment) deferral rule: a list is
// probeable when some segment's portion carries a zone map and every
// portion without one is at most ZoneMapStep postings. The fixture is a
// zone-mapped base, two small appends over the same vocabulary (their
// portions straddle the zone step) and one over a disjoint vocabulary
// (lists found only in small segments).
func TestHasZoneMap(t *testing.T) {
	opts := BuildOptions{K: 2, Seed: 9, T: 5, ZoneMapStep: 2, LongListCutoff: 8}
	dir := buildSegmented(t, opts,
		testCorpus(t, 30, 30, 80, 20, 5),
		testCorpus(t, 2, 30, 60, 20, 6),
		testCorpus(t, 2, 30, 60, 20, 7),
		shiftedCorpus(testCorpus(t, 1, 30, 40, 20, 8), 1000))
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	var smallAppends, longBare, onlySmall int
	for fn := 0; fn < ix.K(); fn++ {
		for _, h := range ix.Hashes(fn) {
			var inBase, zoned, bare, bareLong bool
			for si, seg := range ix.segs {
				ff := seg.funcs[fn]
				i, ok := ff.find(h)
				if !ok {
					continue
				}
				_, z := ff.zone(i)
				inBase = inBase || si == 0
				zoned = zoned || z
				bare = bare || !z
				bareLong = bareLong || !z && ff.count(i) > opts.ZoneMapStep
			}
			got := ix.HasZoneMap(fn, h)
			switch {
			case zoned && bareLong:
				longBare++
				if got {
					t.Fatalf("fn %d hash %x: deferrable with a zone-map-less portion over ZoneMapStep", fn, h)
				}
			case zoned && bare:
				smallAppends++
				if !got {
					t.Fatalf("fn %d hash %x: zone-mapped list with small bare portions not deferrable", fn, h)
				}
			case !inBase && !zoned:
				onlySmall++
				if got {
					t.Fatalf("fn %d hash %x: list found only in small segments is deferrable", fn, h)
				}
			default:
				if got != zoned {
					t.Fatalf("fn %d hash %x: HasZoneMap %v, zone-mapped %v", fn, h, got, zoned)
				}
			}
		}
		if ix.HasZoneMap(fn, 0xdeadbeefdeadbeef) {
			t.Fatal("missing hash reports a zone map")
		}
	}
	if smallAppends == 0 || longBare == 0 || onlySmall == 0 {
		t.Fatalf("degenerate fixture: %d zone-mapped lists with small appended portions, %d with a long bare portion, %d only in small segments",
			smallAppends, longBare, onlySmall)
	}
}

// probeFixtures builds the index shapes a probe can meet — one segment;
// a base with appends, tombstones in the base and in an appended
// segment; that set compacted; and a MergeShards output — and returns
// their directories by name.
func probeFixtures(t *testing.T) map[string]string {
	t.Helper()
	opts := BuildOptions{K: 3, Seed: 13, T: 5, ZoneMapStep: 4, LongListCutoff: 8}
	base, extraA, extraB := testCorpus(t, 40, 40, 120, 50, 11), testCorpus(t, 6, 40, 120, 50, 12), testCorpus(t, 5, 40, 120, 50, 13)
	dirs := map[string]string{}

	dirs["single"] = filepath.Join(t.TempDir(), "ix")
	if _, err := Build(base, dirs["single"], opts); err != nil {
		t.Fatal(err)
	}
	segmented := func() string {
		dir := buildSegmented(t, opts, base, extraA, extraB)
		if err := Delete(dir, []uint32{3, 17, uint32(base.NumTexts()) + 2}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	dirs["segmented"] = segmented()
	dirs["compacted"] = segmented()
	if err := Compact(dirs["compacted"]); err != nil {
		t.Fatal(err)
	}

	shards := []string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	for i, c := range []*corpus.Corpus{base, extraA} {
		if _, err := Build(c, shards[i], opts); err != nil {
			t.Fatal(err)
		}
	}
	dirs["merged"] = filepath.Join(t.TempDir(), "merged")
	if err := MergeShards(shards, []uint32{0, uint32(base.NumTexts())}, dirs["merged"]); err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestProbeFromResidentZones checks every per-text probe against the
// full list read: for every (function, hash, text id) — tombstoned and
// out-of-range ids included — ReadListForTextInto must return exactly
// the text's postings of ReadListInto, on every index shape.
func TestProbeFromResidentZones(t *testing.T) {
	for name, dir := range probeFixtures(t) {
		ix, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		zoned := 0
		for _, seg := range ix.segs {
			for _, ff := range seg.funcs {
				zoned += len(ff.zones)
			}
		}
		if zoned == 0 {
			t.Fatalf("%s: fixture has no zone maps", name)
		}
		n := uint32(ix.Meta().NumTexts)
		ids := []uint32{n, n + 1, math.MaxUint32}
		for id := uint32(0); id < n; id++ {
			ids = append(ids, id)
		}
		var full, want, got []Posting
		for fn := 0; fn < ix.K(); fn++ {
			for _, h := range ix.Hashes(fn) {
				if full, err = ix.ReadListInto(full[:0], fn, h, nil); err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					want = want[:0]
					for _, p := range full {
						if p.TextID == id {
							want = append(want, p)
						}
					}
					if got, err = ix.ReadListForTextInto(got[:0], fn, h, id, nil); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: fn %d hash %x text %d: probe %v, full read %v", name, fn, h, id, got, want)
					}
				}
			}
		}
		ix.Close()
	}
}

// TestOpenZoneTableReadFault fails the read of one zone table at Open:
// the error must be a *ReadError naming that read, and every handle
// opened so far — earlier segments' files included — must be closed.
func TestOpenZoneTableReadFault(t *testing.T) {
	opts := BuildOptions{K: 3, Seed: 13, T: 5, ZoneMapStep: 4, LongListCutoff: 8}
	dir := buildSegmented(t, opts, testCorpus(t, 30, 40, 120, 50, 11), testCorpus(t, 30, 40, 120, 50, 12))
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ix.segs[len(ix.segs)-1]
	ff := last.funcs[len(last.funcs)-1]
	ix.Close()
	if len(ff.zones) == 0 {
		t.Fatal("degenerate fixture: the appended segment's last function has no zone map")
	}
	off := ff.zoneOff(ff.zones[len(ff.zones)/2])

	counted := &readCountFS{FS: fsio.NewFaultFS(fsio.OS).SetCrash(false).FailReadAt(last.path, off)}
	_, err = OpenFS(counted, dir)
	var re *ReadError
	if !errors.As(err, &re) || re.Off != off {
		t.Fatalf("want a *ReadError at the zone table @%d, got %v", off, err)
	}
	if n := counted.open.Load(); n != 0 {
		t.Fatalf("failed Open leaked %d file handles", n)
	}
}

// TestOpenFileBudget pins what Open costs in files: on a base plus two
// appends plus a tombstone it opens each segment file once and reads the
// manifest and the tombstone whole — nothing else. Every read Open makes
// is then failed in turn, and a segment file is removed: each failure is
// an error, and no handle stays open.
func TestOpenFileBudget(t *testing.T) {
	opts := BuildOptions{K: 3, Seed: 13, T: 5, ZoneMapStep: 4, LongListCutoff: 8}
	dir := buildSegmented(t, opts, testCorpus(t, 30, 40, 120, 50, 11), testCorpus(t, 6, 40, 120, 50, 12), testCorpus(t, 5, 40, 120, 50, 13))
	if err := Delete(dir, []uint32{33}); err != nil {
		t.Fatal(err)
	}
	counted := &readCountFS{FS: fsio.OS}
	ix, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := ix.Segments()
	ix.Close()
	if opened, files := counted.opened.Load(), counted.readFiles.Load(); opened != int64(len(segs)) || files != 2 {
		t.Fatalf("Open of %d segments opened %d files and read %d whole, want %d and 2 (manifest, tombstone)", len(segs), opened, files, len(segs))
	}
	if n := counted.open.Load(); n != 0 {
		t.Fatalf("Close left %d handles open", n)
	}
	for _, at := range counted.readLog() {
		faulty := &readCountFS{FS: fsio.NewFaultFS(fsio.OS).SetCrash(false).FailReadAt(at.path, at.off)}
		if _, err := OpenFS(faulty, dir); !errors.Is(err, fsio.ErrInjected) {
			t.Fatalf("read of %s @%d failed: Open returned %v", at.path, at.off, err)
		}
		if n := faulty.open.Load(); n != 0 {
			t.Fatalf("Open failing at %s @%d leaked %d handles", at.path, at.off, n)
		}
	}
	if err := os.Remove(filepath.Join(dir, segs[len(segs)-1].Name)); err != nil {
		t.Fatal(err)
	}
	missing := &readCountFS{FS: fsio.OS}
	if _, err := OpenFS(missing, dir); err == nil {
		t.Fatal("Open without the last segment file succeeded")
	}
	if n := missing.open.Load(); n != 0 {
		t.Fatalf("Open missing a segment file leaked %d handles", n)
	}
}
