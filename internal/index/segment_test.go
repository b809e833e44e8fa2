package index

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
)

// Segment-lifecycle tests: append-as-new-segment, tombstoned deletes,
// compaction equivalence, and the mixed-build-options guard.

// buildSegmented builds a base index and appends extra segments,
// returning the directory. Every slice in parts after the first is
// appended as its own segment.
func buildSegmented(t *testing.T, opts BuildOptions, parts ...*corpus.Corpus) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := Build(parts[0], dir, opts); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts[1:] {
		if _, err := Append(dir, p); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// segmentFile returns the path of segment seg's file in the index at
// dir and the offset of function fn's lists in it, for tests that fault
// or damage a read of one function.
func segmentFile(t *testing.T, dir string, seg, fn int) (string, int64) {
	t.Helper()
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := ix.segs[seg]
	return s.path, int64(s.funcs[fn].region)
}

// allLists snapshots every inverted list of every function, in order —
// the full observable read surface of the index.
func allLists(t *testing.T, ix *Index) map[int]map[uint64][]Posting {
	t.Helper()
	out := make(map[int]map[uint64][]Posting)
	for fn := 0; fn < ix.K(); fn++ {
		out[fn] = make(map[uint64][]Posting)
		for _, h := range ix.Hashes(fn) {
			ps, err := ix.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			// A hash whose postings are all tombstoned reads as empty
			// before compaction and disappears entirely after it; both
			// states are the same observable (no candidates).
			if len(ps) == 0 {
				continue
			}
			out[fn][h] = ps
		}
	}
	return out
}

func assertSameLists(t *testing.T, want, got map[int]map[uint64][]Posting) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("function count differs: %d vs %d", len(want), len(got))
	}
	for fn, lists := range want {
		if len(lists) != len(got[fn]) {
			t.Fatalf("fn %d: list count differs: %d vs %d", fn, len(lists), len(got[fn]))
		}
		for h, ps := range lists {
			qs, ok := got[fn][h]
			if !ok {
				t.Fatalf("fn %d: hash %x missing", fn, h)
			}
			if len(ps) != len(qs) {
				t.Fatalf("fn %d hash %x: length %d vs %d", fn, h, len(ps), len(qs))
			}
			for i := range ps {
				if ps[i] != qs[i] {
					t.Fatalf("fn %d hash %x posting %d: %+v vs %+v", fn, h, i, ps[i], qs[i])
				}
			}
		}
	}
}

// TestAppendWritesOnlySegment is the point of the refactor: appending
// must not rewrite the existing segments — only a new segment file and a
// renamed manifest appear.
func TestAppendWritesOnlySegment(t *testing.T) {
	base := testCorpus(t, 14, 30, 60, 100, 7)
	extra := testCorpus(t, 9, 30, 60, 100, 9)
	opts := BuildOptions{K: 3, Seed: 17, T: 10, Parallelism: 1}
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := Build(base, dir, opts); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(dir, segmentName(0))
	before, err := os.ReadFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Append(dir, extra); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(root); err != nil || string(after) != string(before) {
		t.Fatalf("append rewrote the base segment file: %v", err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.SegmentCount() != 2 {
		t.Fatalf("segment count = %d, want 2", ix.SegmentCount())
	}
	segs := ix.Segments()
	if segs[0].Name != segmentName(0) || segs[1].Name != segmentName(1) {
		t.Fatalf("unexpected segment names: %+v", segs)
	}
	if segs[1].Base != uint32(base.NumTexts()) {
		t.Fatalf("appended segment based at %d, want %d", segs[1].Base, base.NumTexts())
	}
	if st, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil || st.Size() != segs[1].SizeOnDisk {
		t.Fatalf("appended segment file missing: %v", err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*", manifestFileName)); len(m) != 0 {
		t.Fatalf("append left a nested manifest: %v", m)
	}
}

// TestAppendRefusesEmpty: appending no texts is an error that touches
// nothing — not one mutating filesystem operation, no new build.
func TestAppendRefusesEmpty(t *testing.T) {
	dir := buildSegmented(t, BuildOptions{K: 2, Seed: 17, T: 10}, testCorpus(t, 14, 30, 60, 100, 7))
	before, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before.Close()
	counter := fsio.NewFaultFS(fsio.OS)
	if id, err := appendFS(counter, dir, corpus.New(nil)); err == nil || id != "" {
		t.Fatalf("empty append: build %q, err %v; want an error and no build", id, err)
	}
	if n := counter.Ops(); n != 0 {
		t.Fatalf("empty append ran %d mutating ops", n)
	}
	after, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if after.BuildID() != before.BuildID() || after.SegmentCount() != 1 {
		t.Fatalf("empty append changed the index: build %s -> %s, %d segments", before.BuildID(), after.BuildID(), after.SegmentCount())
	}
}

// TestOpenIgnoresStrayIndexMeta: builds before the manifest became the
// only description also wrote an index.meta. Such a leftover is inert —
// it neither blocks a mutation nor is consulted or rewritten by one —
// and the next compaction's directory swap drops it.
func TestOpenIgnoresStrayIndexMeta(t *testing.T) {
	base := testCorpus(t, 14, 30, 60, 100, 7)
	extra := testCorpus(t, 9, 30, 60, 100, 9)
	opts := BuildOptions{K: 3, Seed: 17, T: 10, Parallelism: 1}
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := Build(base, dir, opts); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "index.meta")
	// Deliberately contradicts the manifest: were it read, k would be 1.
	junk := []byte(`{"k":1,"seed":99,"t":3,"num_texts":1}`)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("Build wrote an index.meta: %v", err)
	}
	if err := os.WriteFile(stray, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(step string, segments int) {
		t.Helper()
		ix, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		defer ix.Close()
		if ix.K() != opts.K || ix.SegmentCount() != segments {
			t.Fatalf("%s: k=%d segments=%d, want k=%d segments=%d", step, ix.K(), ix.SegmentCount(), opts.K, segments)
		}
	}
	check("open", 1)
	if _, err := Append(dir, extra); err != nil {
		t.Fatal(err)
	}
	check("append", 2)
	if err := Delete(dir, []uint32{2}); err != nil {
		t.Fatal(err)
	}
	check("delete", 2)
	if got, err := os.ReadFile(stray); err != nil || string(got) != string(junk) {
		t.Fatalf("append/delete touched the stray index.meta: %q, %v", got, err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*", "index.meta")); len(m) != 0 {
		t.Fatalf("append wrote an index.meta into its segment: %v", m)
	}
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	check("compact", 1)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("compaction resurrected the stray index.meta: %v", err)
	}
}

// TestMixedOptionsRejected tampers a committed manifest so one segment
// claims different hash parameters; Open must refuse with the typed
// error.
func TestMixedOptionsRejected(t *testing.T) {
	base := testCorpus(t, 14, 30, 60, 100, 7)
	extra := testCorpus(t, 9, 30, 60, 100, 9)
	opts := BuildOptions{K: 2, Seed: 17, T: 10, Parallelism: 1}
	dir := buildSegmented(t, opts, base, extra)

	man, err := readManifest(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Segments[1].Meta.Seed++
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil {
		t.Fatal("mixed build options should fail to open")
	}
	var mixed *MixedOptionsError
	if !errors.As(err, &mixed) {
		t.Fatalf("error is not a MixedOptionsError: %v", err)
	}
	if mixed.Segment != segmentName(1) {
		t.Fatalf("error names segment %q, want %q", mixed.Segment, segmentName(1))
	}
}

// TestDeleteTombstones checks gather-time masking: a deleted text
// vanishes from every list read while the segments and the id space
// stay untouched.
func TestDeleteTombstones(t *testing.T) {
	base := testCorpus(t, 14, 30, 60, 100, 7)
	extra := testCorpus(t, 9, 30, 60, 100, 9)
	opts := BuildOptions{K: 2, Seed: 17, T: 10, Parallelism: 1}
	dir := buildSegmented(t, opts, base, extra)

	// One id in the root segment, one in the appended segment.
	victims := []uint32{3, uint32(base.NumTexts()) + 2}
	if err := Delete(dir, victims); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if got := ix.Meta().NumTexts; got != base.NumTexts()+extra.NumTexts() {
		t.Fatalf("delete changed the id space: NumTexts %d", got)
	}
	segs := ix.Segments()
	if segs[0].Tombstoned != 1 || segs[1].Tombstoned != 1 {
		t.Fatalf("tombstone counts %d/%d, want 1/1", segs[0].Tombstoned, segs[1].Tombstoned)
	}
	dead := map[uint32]bool{victims[0]: true, victims[1]: true}
	for fn := 0; fn < ix.K(); fn++ {
		for _, h := range ix.Hashes(fn) {
			ps, err := ix.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps {
				if dead[p.TextID] {
					t.Fatalf("fn %d hash %x still lists deleted text %d", fn, h, p.TextID)
				}
			}
			for _, id := range victims {
				ps, err := probeText(ix, nil, fn, h, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(ps) != 0 {
					t.Fatalf("probe for deleted text %d returned %d postings", id, len(ps))
				}
			}
		}
	}

	// Deleting the same ids again is a no-op commit, out-of-range is an
	// error.
	if err := Delete(dir, victims[:1]); err != nil {
		t.Fatal(err)
	}
	if err := Delete(dir, []uint32{uint32(ix.Meta().NumTexts)}); err == nil {
		t.Fatal("delete beyond the corpus should fail")
	}
}

// TestCompactEquivalence is the compaction oracle: merging the segment
// set into one must not change a single observable read — same hashes,
// same postings, same order — while dropping tombstoned postings and
// preserving the id space.
func TestCompactEquivalence(t *testing.T) {
	base := testCorpus(t, 14, 30, 60, 100, 7)
	extraA := testCorpus(t, 9, 30, 60, 100, 9)
	extraB := testCorpus(t, 7, 30, 60, 100, 11)
	opts := BuildOptions{K: 3, Seed: 17, T: 10, Parallelism: 1}
	dir := buildSegmented(t, opts, base, extraA, extraB)
	victims := []uint32{1, uint32(base.NumTexts()) + 4, uint32(base.NumTexts()+extraA.NumTexts()) + 2}
	if err := Delete(dir, victims); err != nil {
		t.Fatal(err)
	}

	before, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := allLists(t, before)
	wantMeta := before.Meta()
	before.Close()

	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	after, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if after.SegmentCount() != 1 {
		t.Fatalf("compacted index has %d segments", after.SegmentCount())
	}
	if after.Segments()[0].Tombstoned != 0 {
		t.Fatal("compacted index still carries tombstones")
	}
	if after.Meta() != wantMeta {
		t.Fatalf("compaction changed meta: %+v vs %+v", wantMeta, after.Meta())
	}
	assertSameLists(t, want, allLists(t, after))
	if err := after.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Old segment files and tombstone files are gone.
	if m, _ := filepath.Glob(filepath.Join(dir, "seg-*")); len(m) != 1 || filepath.Base(m[0]) != after.Segments()[0].Name {
		t.Fatalf("compaction left segment files %v, want only %s", m, after.Segments()[0].Name)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "tomb-*")); len(m) != 0 {
		t.Fatalf("compaction left %v behind", m)
	}

	// Compacting an already-compact index is a no-op: same build id.
	id := after.BuildID()
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.BuildID() != id {
		t.Fatal("no-op compaction rewrote the index")
	}
}

// TestCompactUnderReadFaults injects read faults into the segment files
// while compaction is reading them: the compaction must fail cleanly
// with the read's context, leave the segment set untouched, and succeed
// once the fault clears.
func TestCompactUnderReadFaults(t *testing.T) {
	base := testCorpus(t, 14, 30, 60, 100, 7)
	extra := testCorpus(t, 9, 30, 60, 100, 9)
	opts := BuildOptions{K: 2, Seed: 17, T: 10, Parallelism: 1}
	dir := buildSegmented(t, opts, base, extra)
	if err := Delete(dir, []uint32{2}); err != nil {
		t.Fatal(err)
	}

	before, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := allLists(t, before)
	oldID := before.BuildID()
	before.Close()

	ffs := fsio.NewFaultFS(fsio.OS).SetCrash(false)
	ffs.FailReadAt(segmentFile(t, dir, 0, 0))
	err = compactFS(ffs, dir)
	if err == nil {
		t.Fatal("compaction read through an injected fault")
	}
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("fault did not surface as a ReadError: %v", err)
	}
	mid, err := Open(dir)
	if err != nil {
		t.Fatalf("failed compaction damaged the index: %v", err)
	}
	if mid.BuildID() != oldID {
		t.Fatal("failed compaction committed anyway")
	}
	assertSameLists(t, want, allLists(t, mid))
	mid.Close()

	ffs.ClearReadFault()
	if err := compactFS(ffs, dir); err != nil {
		t.Fatal(err)
	}
	after, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if after.SegmentCount() != 1 {
		t.Fatalf("compacted index has %d segments", after.SegmentCount())
	}
	assertSameLists(t, want, allLists(t, after))
}
