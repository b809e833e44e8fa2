package index

import (
	"reflect"
	"testing"

	"ndss/internal/corpus"
)

// The Into read variants must (a) return the same postings into a
// reused dst as into a fresh one, and a probe exactly the text's share
// of the full list, (b) append after existing dst contents, (c) record
// exactly the same bytes/latency into the caller's sink as into the
// index-wide counters, and (d) never alias index storage.

func buildSinkTestIndex(t *testing.T) (*Index, *corpus.Corpus) {
	t.Helper()
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 30, MinLength: 30, MaxLength: 80, VocabSize: 25,
		ZipfS: 1.3, Seed: 5, DupRate: 0.5, DupSnippetLen: 15, DupMutateProb: 0.05,
	})
	dir := t.TempDir()
	if _, err := Build(c, dir, BuildOptions{K: 4, Seed: 9, T: 5, ZoneMapStep: 4, LongListCutoff: 8}); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, c
}

// TestReadListIntoMatchesReadList: a read into the reused buffer a
// query's arena is returns what a fresh read does, and charges the sink
// what it charges the index-wide counters.
func TestReadListIntoMatchesReadList(t *testing.T) {
	ix, _ := buildSinkTestIndex(t)
	var buf []Posting
	for fn := 0; fn < ix.K(); fn++ {
		for _, h := range ix.Hashes(fn) {
			fresh, err := ix.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			var sink IOStats
			before := ix.IOStats()
			buf, err = ix.ReadListInto(buf[:0], fn, h, &sink)
			if err != nil {
				t.Fatal(err)
			}
			after := ix.IOStats()
			if !reflect.DeepEqual(buf, fresh) {
				t.Fatalf("fn %d hash %x: reused-buffer read differs from a fresh one", fn, h)
			}
			if sink.BytesRead != after.BytesRead-before.BytesRead {
				t.Fatalf("fn %d hash %x: sink bytes %d != counter delta %d",
					fn, h, sink.BytesRead, after.BytesRead-before.BytesRead)
			}
			if sink.ReadTime != after.ReadTime-before.ReadTime {
				t.Fatalf("fn %d hash %x: sink time %v != counter delta %v",
					fn, h, sink.ReadTime, after.ReadTime-before.ReadTime)
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

func TestReadRowsForTextIntoMatchesAndAccounts(t *testing.T) {
	ix, c := buildSinkTestIndex(t)
	for fn := 0; fn < ix.K(); fn++ {
		for _, h := range ix.Hashes(fn) {
			full, err := ix.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < c.NumTexts(); id += 7 {
				var want []Posting
				for _, p := range full {
					if p.TextID == uint32(id) {
						want = append(want, p)
					}
				}
				var sink IOStats
				before := ix.IOStats()
				got, err := probeText(ix, nil, fn, h, uint32(id), &sink)
				if err != nil {
					t.Fatal(err)
				}
				after := ix.IOStats()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fn %d hash %x text %d: probe differs\ngot  %v\nwant %v", fn, h, id, got, want)
				}
				if sink.BytesRead != after.BytesRead-before.BytesRead {
					t.Fatalf("fn %d hash %x text %d: sink bytes %d != delta %d",
						fn, h, id, sink.BytesRead, after.BytesRead-before.BytesRead)
				}
			}
		}
	}
}

// TestIndexIntoVariantsCopy: both Into variants hand out postings the
// caller owns — scribbling over them never reaches a later read — and
// a dst with room is filled in place rather than reallocated.
func TestIndexIntoVariantsCopy(t *testing.T) {
	ix, _ := buildSinkTestIndex(t)
	read := map[string]func(dst []Posting, fn int, h uint64, id uint32) ([]Posting, error){
		"ReadListInto": func(dst []Posting, fn int, h uint64, _ uint32) ([]Posting, error) {
			return ix.ReadListInto(dst, fn, h, nil)
		},
		"ReadRowsForTextInto": func(dst []Posting, fn int, h uint64, id uint32) ([]Posting, error) {
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
