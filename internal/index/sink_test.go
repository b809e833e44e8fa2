package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
)

// The Into read variants must (a) return the same postings into a
// reused dst as into a fresh one, and a probe exactly the text's share
// of the full list, (b) append after existing dst contents, (c) charge
// the caller's sink exactly the bytes the filesystem returned, and (d)
// never alias index storage.

// buildSinkTestIndex builds a small zone-mapped index and opens it
// through a filesystem that counts the bytes its reads return.
func buildSinkTestIndex(t *testing.T) (*Index, *readCountFS) {
	t.Helper()
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 30, MinLength: 30, MaxLength: 80, VocabSize: 25,
		ZipfS: 1.3, Seed: 5, DupRate: 0.5, DupSnippetLen: 15, DupMutateProb: 0.05,
	})
	dir := t.TempDir()
	if _, err := Build(c, dir, BuildOptions{K: 4, Seed: 9, T: 5, ZoneMapStep: 4, LongListCutoff: 8}); err != nil {
		t.Fatal(err)
	}
	counted := &readCountFS{FS: fsio.OS}
	ix, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, counted
}

// TestReadListIntoMatchesReadList: a read into the reused buffer a
// query's arena is returns what a fresh read does, and charges the sink
// the bytes the filesystem returned and at most the read's wall time.
func TestReadListIntoMatchesReadList(t *testing.T) {
	ix, counted := buildSinkTestIndex(t)
	var buf []Posting
	for fn := 0; fn < ix.K(); fn++ {
		for _, h := range ix.Hashes(fn) {
			fresh, err := ix.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			var sink IOStats
			before, start := counted.bytes.Load(), time.Now()
			buf, err = ix.ReadListInto(buf[:0], fn, h, &sink)
			if err != nil {
				t.Fatal(err)
			}
			wall, returned := time.Since(start), counted.bytes.Load()-before
			if !reflect.DeepEqual(buf, fresh) {
				t.Fatalf("fn %d hash %x: reused-buffer read differs from a fresh one", fn, h)
			}
			if sink.BytesRead != returned || returned == 0 {
				t.Fatalf("fn %d hash %x: sink bytes %d, the filesystem returned %d", fn, h, sink.BytesRead, returned)
			}
			if sink.ReadTime <= 0 || sink.ReadTime > wall {
				t.Fatalf("fn %d hash %x: sink time %v outside (0, %v], the call's wall time", fn, h, sink.ReadTime, wall)
			}
		}
	}
}

func TestReadListIntoAppends(t *testing.T) {
	ix, _ := buildSinkTestIndex(t)
	fn := 0
	hashes := ix.Hashes(fn)
	if len(hashes) < 2 {
		t.Skip("need two lists")
	}
	a, _ := ix.ReadListInto(nil, fn, hashes[0], nil)
	b, _ := ix.ReadListInto(nil, fn, hashes[1], nil)
	combined, err := ix.ReadListInto(nil, fn, hashes[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	combined, err = ix.ReadListInto(combined, fn, hashes[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Posting(nil), a...), b...)
	if !reflect.DeepEqual(combined, want) {
		t.Fatalf("appended read diverged:\ngot  %v\nwant %v", combined, want)
	}
}

// TestReadRowsIntoRangeMatchesAndAccounts holds ReadRowsInto over
// random [lo, hi] ranges — ranges straddling segment bases, over
// tombstoned texts and past the last id — to the full read filtered to
// the range, on every probeFixtures shape, and checks that each read
// charges the sink the bytes the filesystem returned. It also
// pins the bytes that full reads, and one-text reads of every live
// text, cost in sum: the zone windows the reads take must not widen.
func TestReadRowsIntoRangeMatchesAndAccounts(t *testing.T) {
	wantBytes := map[string][2]int64{ // full reads, one-text reads of live texts
		"single":    {53312, 270352},
		"segmented": {68384, 294928},
		"compacted": {63152, 354448},
		"merged":    {61200, 317104},
	}
	rng := rand.New(rand.NewSource(7))
	for name, dir := range probeFixtures(t) {
		counted := &readCountFS{FS: fsio.OS}
		ix, err := OpenFS(counted, dir)
		if err != nil {
			t.Fatal(err)
		}
		n := uint32(ix.Meta().NumTexts)
		ends := []uint32{0, n, n + 1, math.MaxUint32}
		live := make([]bool, n)
		for _, seg := range ix.segs {
			last := seg.base + uint32(seg.meta.NumTexts) - 1
			ends = append(ends, seg.base, last, last+1)
			for id := seg.base; id <= last; id++ {
				if live[id] = !seg.tomb.has(id - seg.base); !live[id] {
					ends = append(ends, id)
				}
			}
		}
		end := func() uint32 {
			if rng.Intn(2) == 0 {
				return ends[rng.Intn(len(ends))]
			}
			return uint32(rng.Intn(int(n)))
		}
		var fullBytes, probeBytes int64
		read := func(fn int, h uint64, lo, hi uint32) ([]Posting, int64) {
			t.Helper()
			var sink IOStats
			before := counted.bytes.Load()
			got, err := ix.ReadRowsInto(nil, rowsOf(ix, h), fn, lo, hi, &sink)
			if err != nil {
				t.Fatal(err)
			}
			if returned := counted.bytes.Load() - before; sink.BytesRead != returned {
				t.Fatalf("%s: fn %d hash %x [%d, %d]: sink bytes %d, the filesystem returned %d", name, fn, h, lo, hi, sink.BytesRead, returned)
			}
			return got, sink.BytesRead
		}
		for fn := 0; fn < ix.K(); fn++ {
			for _, h := range ix.Hashes(fn) {
				full, err := ix.ReadListInto(nil, fn, h, nil)
				if err != nil {
					t.Fatal(err)
				}
				whole, b := read(fn, h, 0, math.MaxUint32)
				if !reflect.DeepEqual(whole, full) {
					t.Fatalf("%s: fn %d hash %x: full-range read %v, ReadListInto %v", name, fn, h, whole, full)
				}
				fullBytes += b
				for id := uint32(0); id < n; id++ {
					if _, b := read(fn, h, id, id); live[id] {
						probeBytes += b
					}
				}
				for trial := 0; trial < 16; trial++ {
					lo, hi := end(), end()
					if lo > hi {
						lo, hi = hi, lo
					}
					var want []Posting
					for _, p := range full {
						if p.TextID >= lo && p.TextID <= hi {
							want = append(want, p)
						}
					}
					if got, _ := read(fn, h, lo, hi); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: fn %d hash %x [%d, %d]: read %v, want %v", name, fn, h, lo, hi, got, want)
					}
				}
			}
		}
		if got := [2]int64{fullBytes, probeBytes}; got != wantBytes[name] {
			t.Errorf("%s: full reads and one-text reads took %v bytes, want %v", name, got, wantBytes[name])
		}
		ix.Close()
	}
}

// TestIndexIntoVariantsCopy: a list read and a one-text read hand out
// postings the caller owns — scribbling over them never reaches a later
// read — and a dst with room is filled in place rather than
// reallocated.
func TestIndexIntoVariantsCopy(t *testing.T) {
	ix, _ := buildSinkTestIndex(t)
	read := map[string]func(dst []Posting, fn int, h uint64, id uint32) ([]Posting, error){
		"ReadListInto": func(dst []Posting, fn int, h uint64, _ uint32) ([]Posting, error) {
			return ix.ReadListInto(dst, fn, h, nil)
		},
		"ReadRowsInto one text": func(dst []Posting, fn int, h uint64, id uint32) ([]Posting, error) {
			return probeText(ix, dst, fn, h, id, nil)
		},
	}
	for name, readInto := range read {
		checked := 0
		for fn := 0; fn < ix.K(); fn++ {
			for _, h := range ix.Hashes(fn) {
				head, err := ix.ReadListInto(nil, fn, h, nil)
				if err != nil {
					t.Fatal(err)
				}
				id := head[0].TextID
				first, err := readInto(nil, fn, h, id)
				if err != nil {
					t.Fatal(err)
				}
				want := append([]Posting(nil), first...)
				for i := range first {
					first[i] = Posting{TextID: 1 << 30}
				}
				// A probe reads whole zone blocks before filtering, so
				// room means room for the full list.
				warm := make([]Posting, 0, len(head))
				got, err := readInto(warm, fn, h, id)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s fn %d hash %x: a write to an earlier result reached a later read", name, fn, h)
				}
				if &got[:1][0] != &warm[:1][0] {
					t.Fatalf("%s fn %d hash %x: a dst with room was reallocated", name, fn, h)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no list checked", name)
		}
	}
}
