package index

import (
	"path/filepath"
	"testing"

	"ndss/internal/corpus"
)

// TestReadListIntoSortedByTextID pins the reader contract the query
// pipeline's count stage merges on (search.IndexReader): whatever the
// index is made of — one segment, a base with appended segments and
// tombstones, its compacted copy, a MergeShards output — every
// ReadListInto result is non-decreasing in global TextID.
func TestReadListIntoSortedByTextID(t *testing.T) {
	parts := []*corpus.Corpus{
		testCorpus(t, 14, 30, 60, 40, 7),
		testCorpus(t, 9, 30, 60, 40, 9),
		testCorpus(t, 7, 30, 60, 40, 11),
		testCorpus(t, 5, 30, 60, 40, 13),
	}
	opts := BuildOptions{K: 3, Seed: 17, T: 10, Parallelism: 1, ZoneMapStep: 2, LongListCutoff: 4}

	check := func(name string, ix *Index) {
		t.Helper()
		var buf []Posting
		lists, repeats := 0, 0
		for fn := 0; fn < opts.K; fn++ {
			for _, h := range ix.Hashes(fn) {
				var err error
				if buf, err = ix.ReadListInto(buf[:0], fn, h, nil); err != nil {
					t.Fatal(err)
				}
				lists++
				for i := 1; i < len(buf); i++ {
					if buf[i].TextID < buf[i-1].TextID {
						t.Fatalf("%s: fn %d hash %x: text %d after %d", name, fn, h, buf[i].TextID, buf[i-1].TextID)
					}
					if buf[i].TextID == buf[i-1].TextID {
						repeats++
					}
				}
			}
		}
		if lists == 0 || repeats == 0 {
			t.Fatalf("%s: vacuous check (%d lists, %d repeated texts)", name, lists, repeats)
		}
	}
	open := func(dir string) *Index {
		t.Helper()
		ix, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}

	single := filepath.Join(t.TempDir(), "single")
	if _, err := Build(parts[0], single, opts); err != nil {
		t.Fatal(err)
	}
	ix := open(single)
	check("single segment", ix)

	segmented := buildSegmented(t, opts, parts...)
	victims := []uint32{1, uint32(parts[0].NumTexts()) + 4, uint32(parts[0].NumTexts()+parts[1].NumTexts()) + 2}
	if err := Delete(segmented, victims); err != nil {
		t.Fatal(err)
	}
	ix = open(segmented)
	if ix.SegmentCount() != 4 {
		t.Fatalf("fixture has %d segments, want 4", ix.SegmentCount())
	}
	check("base+3 segments with tombstones", ix)

	if err := Compact(segmented); err != nil {
		t.Fatal(err)
	}
	ix = open(segmented)
	if ix.SegmentCount() != 1 {
		t.Fatalf("compacted fixture has %d segments, want 1", ix.SegmentCount())
	}
	check("compacted", ix)

	var shardDirs []string
	var offsets []uint32
	var off uint32
	for i, p := range parts {
		dir := filepath.Join(t.TempDir(), "shard")
		if _, err := Build(p, dir, opts); err != nil {
			t.Fatal(err)
		}
		shardDirs = append(shardDirs, dir)
		offsets = append(offsets, off)
		off += uint32(parts[i].NumTexts())
	}
	merged := filepath.Join(t.TempDir(), "merged")
	if err := MergeShards(shardDirs, offsets, merged); err != nil {
		t.Fatal(err)
	}
	ix = open(merged)
	check("MergeShards output", ix)
}
