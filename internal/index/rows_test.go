package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ndss/internal/fsio"
)

// rowsOf resolves h as the hash of every function of ix, so the result
// serves function fn's list for h whichever fn a test reads.
func rowsOf(ix *Index, h uint64) *Rows {
	sketch := make([]uint64, ix.K())
	for fn := range sketch {
		sketch[fn] = h
	}
	var rows Rows
	ix.ResolveRows(&rows, sketch)
	return &rows
}

// probeText is ReadRowsInto over the one text id textID, on the one
// list of function fn for hash h.
func probeText(ix *Index, dst []Posting, fn int, h uint64, textID uint32, sink *IOStats) ([]Posting, error) {
	return ix.ReadRowsInto(dst, rowsOf(ix, h), fn, textID, textID, sink)
}

// TestResolveRowsDrop checks a resolved sketch against the directories
// it was resolved from, on a tombstoned base with two appends: each
// segment's Present is the number of functions whose hash it lists, and
// after dropping a segment every length, full read and probe equals the
// undropped one minus that segment's texts, with no read of its file.
func TestResolveRowsDrop(t *testing.T) {
	dir := probeFixtures(t)["segmented"]
	counted := &readCountFS{FS: fsio.OS}
	ix, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	k, nseg := ix.K(), ix.SegmentCount()
	rng := rand.New(rand.NewSource(3))
	pick := func(fn int) uint64 { // a hash of fn's lists, or one in none
		hs := ix.Hashes(fn)
		if rng.Intn(4) == 0 {
			return 0xdeadbeefdeadbeef
		}
		return hs[rng.Intn(len(hs))]
	}
	var rows Rows
	for trial := 0; trial < 50; trial++ {
		sketch := make([]uint64, k)
		for fn := range sketch {
			sketch[fn] = pick(fn)
		}
		ix.ResolveRows(&rows, sketch)
		if rows.Segments() != nseg {
			t.Fatalf("rows cover %d segments, index has %d", rows.Segments(), nseg)
		}
		for si, seg := range ix.segs {
			want := 0
			for fn, h := range sketch {
				if _, ok := slices.BinarySearch(seg.funcs[fn].hashes, h); ok {
					want++
				}
			}
			if got := rows.Present(si); got != want {
				t.Fatalf("segment %d: Present %d, lists %d of the sketch's hashes", si, got, want)
			}
		}

		drop := rng.Intn(nseg)
		seg := ix.segs[drop]
		inDropped := func(p Posting) bool {
			return p.TextID >= seg.base && p.TextID < seg.base+uint32(seg.meta.NumTexts)
		}
		var wants [][]Posting
		for fn, h := range sketch {
			full, err := ix.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, slices.DeleteFunc(full, inDropped))
		}
		rows.Drop(drop)
		if rows.Present(drop) != 0 {
			t.Fatalf("dropped segment %d still presents %d hashes", drop, rows.Present(drop))
		}
		before := counted.readLog()
		for fn := range sketch {
			want, n := wants[fn], 0
			for si := range ix.segs {
				if si != drop {
					n += int(ix.segs[si].funcs[fn].resolve(sketch[fn]).n)
				}
			}
			if got := rows.Len(fn); got != n {
				t.Fatalf("fn %d: Len %d after the drop, kept portions hold %d", fn, got, n)
			}
			got, err := ix.ReadRowsInto(nil, &rows, fn, 0, math.MaxUint32, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("fn %d: read %v after dropping segment %d, want %v", fn, got, drop, want)
			}
			for id := uint32(0); id < uint32(ix.Meta().NumTexts); id++ {
				probe, err := ix.ReadRowsInto(nil, &rows, fn, id, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				var wantText []Posting
				for _, p := range want {
					if p.TextID == id {
						wantText = append(wantText, p)
					}
				}
				if !slices.Equal(probe, wantText) {
					t.Fatalf("fn %d text %d: probe %v after dropping segment %d, want %v", fn, id, probe, drop, wantText)
				}
			}
		}
		for _, r := range counted.readLog()[len(before):] {
			if r.path == seg.path {
				t.Fatalf("read %d bytes at %d of dropped segment %s", r.n, r.off, seg.path)
			}
		}
	}
}
