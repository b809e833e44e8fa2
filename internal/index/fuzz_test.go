package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ndss/internal/fsio"
)

// FuzzManifestParse checks that manifest parsing is total: arbitrary
// bytes — including torn prefixes of a valid manifest, the write state
// a crash mid-commit can leave behind — either parse to a validated
// manifest or return an error, and never panic. Any accepted input
// must satisfy the invariants the rest of the index lifecycle assumes.
func FuzzManifestParse(f *testing.F) {
	valid, err := json.MarshalIndent(newManifest(Meta{K: 2, T: 4, Seed: 7, NumTexts: 3}, segSum{size: 384, footerCRC: 5}), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	f.Add([]byte("{}"))
	// Version-1 (pre-segment) shapes are no longer read: rejected, never
	// panicking.
	f.Add([]byte(`{"format_version":1,"build_id":"x","meta":{"k":1,"t":2},"files":[{"name":"index.000","size":64}]}`))
	f.Add([]byte(`{"format_version":1,"build_id":"x","meta":{"k":1,"t":2},"files":[{}]}`))
	f.Add([]byte(`{"format_version":1,"build_id":"x","meta":{"k":-1,"t":2}}`))
	// Version-2 (one file per function) shapes are no longer read either.
	f.Add([]byte(`{"format_version":2,"build_id":"x","meta":{"k":1,"t":2,"seed":3,"num_texts":5},` +
		`"segments":[{"name":"","meta":{"k":1,"t":2,"seed":3,"num_texts":2},"files":[{"name":"index.000"}]},` +
		`{"name":"seg-000001","meta":{"k":1,"t":2,"seed":3,"num_texts":3},"files":[{"name":"index.000"}],` +
		`"tombstone":{"name":"tomb-seg-000001-ab","deleted":1,"crc32":9}}]}`))
	f.Add([]byte(`{"format_version":2,"build_id":"x","meta":{"k":1,"t":2},"segments":[{"name":"../evil","meta":{"k":1,"t":2}}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	// Multi-segment and tombstoned shapes.
	f.Add([]byte(`{"format_version":3,"build_id":"x","meta":{"k":1,"t":2,"seed":3,"num_texts":5},` +
		`"segments":[{"name":"seg-000000","meta":{"k":1,"t":2,"seed":3,"num_texts":2},"size":64,"footer_crc32":1},` +
		`{"name":"seg-000001","meta":{"k":1,"t":2,"seed":3,"num_texts":3},"size":80,"footer_crc32":2,` +
		`"tombstone":{"name":"tomb-seg-000001-ab","deleted":1,"crc32":9}}]}`))
	f.Add([]byte(`{"format_version":3,"build_id":"x","meta":{"k":1,"t":2},"segments":[{"name":"","meta":{"k":1,"t":2}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v with non-nil manifest", err)
			}
			return
		}
		if m.FormatVersion != manifestFormatVersion {
			t.Fatalf("accepted format version %d", m.FormatVersion)
		}
		if m.BuildID == "" {
			t.Fatal("accepted manifest without build id")
		}
		if m.Meta.K <= 0 || m.Meta.T <= 0 {
			t.Fatalf("accepted invalid meta k=%d t=%d", m.Meta.K, m.Meta.T)
		}
		if len(m.Segments) == 0 {
			t.Fatal("accepted manifest without segments")
		}
		texts, tokens := 0, int64(0)
		for _, seg := range m.Segments {
			if !validEntryName(seg.Name) {
				t.Fatalf("accepted segment name %q", seg.Name)
			}
			if seg.Meta.K != m.Meta.K || seg.Meta.Seed != m.Meta.Seed || seg.Meta.T != m.Meta.T {
				t.Fatalf("accepted mixed build options: segment %q %+v vs aggregate %+v", seg.Name, seg.Meta, m.Meta)
			}
			if tomb := seg.Tomb; tomb != nil && (tomb.Deleted <= 0 || tomb.Deleted > seg.Meta.NumTexts) {
				t.Fatalf("accepted tombstone marking %d of %d texts", tomb.Deleted, seg.Meta.NumTexts)
			}
			texts += seg.Meta.NumTexts
			tokens += seg.Meta.TotalTokens
		}
		if m.Meta.NumTexts != texts || m.Meta.TotalTokens != tokens {
			t.Fatalf("accepted aggregate (%d texts, %d tokens) inconsistent with segments (%d, %d)",
				m.Meta.NumTexts, m.Meta.TotalTokens, texts, tokens)
		}
		// Round-trip: a parsed manifest re-encodes and re-parses to the
		// same validated value.
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		m2, err := parseManifest(out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round-trip changed manifest: %+v vs %+v", m, m2)
		}
	})
}

// FuzzTombstoneParse checks that tombstone parsing is total over the
// bytes a torn or stale bitmap file can hold, and that whatever it
// accepts is exactly what the manifest record promised: the recorded
// CRC, the segment's text count, want.Deleted ids marked and none of
// them beyond the segment. fixCRC lets the fuzzer get past the checksum
// gate (it cannot guess a CRC-32) to the structural checks behind it.
func FuzzTombstoneParse(f *testing.F) {
	ts := newTombSet(11)
	ts.set(0)
	ts.set(10)
	valid, crc := encodeTombstone(ts)
	f.Add(valid, 11, 2, crc, false)
	f.Add(valid, 11, 2, crc+1, false)                   // stale manifest record
	f.Add(valid, 12, 2, crc, false)                     // bitmap of another segment
	f.Add(valid, 11, 3, crc, false)                     // wrong deleted count
	f.Add(valid[:len(valid)-1], 11, 2, uint32(0), true) // torn write
	f.Add(valid[:len(tombMagic)+2], 11, 2, uint32(0), true)
	padded := bytes.Clone(valid)
	padded[len(padded)-1] |= 0x80 // id 15 of an 11-text segment
	f.Add(padded, 11, 3, uint32(0), true)
	f.Add([]byte{}, 0, 0, uint32(0), true)
	f.Fuzz(func(t *testing.T, data []byte, numTexts, deleted int, crc uint32, fixCRC bool) {
		if fixCRC {
			crc = crc32.ChecksumIEEE(data)
		}
		want := &ManifestTombstone{Name: "tomb-fuzz", Deleted: deleted, CRC: crc}
		ts, err := parseTombstone(data, want, numTexts)
		if err != nil {
			if ts != nil {
				t.Fatalf("error %v with non-nil bitmap", err)
			}
			return
		}
		if got := crc32.ChecksumIEEE(data); got != want.CRC {
			t.Fatalf("accepted bytes with crc %08x, manifest records %08x", got, want.CRC)
		}
		if ts.n != numTexts {
			t.Fatalf("accepted a bitmap over %d texts for a segment of %d", ts.n, numTexts)
		}
		marked := 0
		for id := 0; id < 8*len(ts.bits); id++ {
			if ts.bits[id>>3]&(1<<(id&7)) == 0 {
				continue
			}
			if id >= numTexts {
				t.Fatalf("accepted a bitmap marking id %d of a %d-text segment", id, numTexts)
			}
			if !ts.has(uint32(id)) {
				t.Fatalf("has(%d) is false for a set bit", id)
			}
			marked++
		}
		if marked != want.Deleted || ts.count() != marked {
			t.Fatalf("accepted %d marked ids (count() %d), manifest records %d", marked, ts.count(), want.Deleted)
		}
		if out, _ := encodeTombstone(ts); !bytes.Equal(out, data) {
			t.Fatalf("accepted bytes do not re-encode to themselves")
		}
	})
}

// FuzzOpenSegment mutates the directory columns, zone maps and footer
// rows of a small valid segment file — each edit is three bytes: a
// little-endian index into those bytes and a mask it is XORed with —
// then re-seals every checksum and the manifest record, so the mutation
// gets past them to the checks on the columns. Open must never panic,
// and an index it accepts must serve every row of every function, whole
// through ReadListInto and over one text's id or a random id range
// through ReadRowsInto, without error and without a read outside the
// function's lists. Where the row's postings are sorted and its zone
// map, if any, agrees with them, a range read must equal the whole read
// filtered to the range.
func FuzzOpenSegment(f *testing.F) {
	src := f.TempDir()
	if _, err := Build(testCorpus(f, 12, 30, 60, 40, 61), src, BuildOptions{K: 2, Seed: 5, T: 5, ZoneMapStep: 4, LongListCutoff: 8}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(src, segmentName(0)))
	if err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(src, manifestFileName))
	if err != nil {
		f.Fatal(err)
	}
	// The bytes an edit may touch: directory columns, zone entries, and
	// the footer rows' dirOff and numLists.
	var mutable []int
	span := func(from, to uint64) {
		for p := from; p < to; p++ {
			mutable = append(mutable, int(p))
		}
	}
	var zoned []int
	for fn, fun := range rawSegment(f, valid) {
		for _, r := range fun.rows() {
			if r.zoneCount > 0 {
				zoned = append(zoned, len(mutable))
				zones := r.off + uint64(r.count)*postingSize
				span(zones, zones+uint64(r.zoneCount)*zoneEntrySize)
			}
		}
		span(fun.dirOff, fun.dirOff+fun.dirLen())
		row := uint64(int64(len(valid))-footerLen(2)) + uint64(fn*footerRowLen)
		span(row, row+16)
	}
	if len(zoned) == 0 {
		f.Fatal("degenerate fixture: no zone maps")
	}
	edit := func(at int, mask byte) []byte {
		return append(binary.LittleEndian.AppendUint16(nil, uint16(at)), mask)
	}
	f.Add([]byte{})
	f.Add(edit(zoned[0]+3, 0xff))          // a zone map's first entry
	f.Add(edit(zoned[0]+zoneEntrySize, 1)) // its second
	f.Add(edit(len(mutable)-1, 1))         // the last footer row's numLists
	f.Add(edit(len(mutable)-16, 4))        // the last footer row's dirOff
	f.Add(edit(len(mutable)-20, 0x80))     // the last starts entry
	f.Add(slices.Concat(edit(len(mutable)/2, 1), edit(len(mutable)/3, 0x10)))
	f.Fuzz(func(t *testing.T, edits []byte) {
		data := slices.Clone(valid)
		for e := 0; e+3 <= len(edits); e += 3 {
			data[mutable[int(binary.LittleEndian.Uint16(edits[e:]))%len(mutable)]] ^= edits[e+2]
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestFileName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		resealSegment(t, dir, filepath.Join(dir, segmentName(0)), data)
		fsys := &readCountFS{FS: fsio.OS}
		ix, err := OpenFS(fsys, dir)
		if err != nil {
			if len(edits) < 3 {
				t.Fatalf("unedited segment refused: %v", err)
			}
			return
		}
		defer ix.Close()
		rng := rand.New(rand.NewSource(int64(len(edits))))
		for fn, ff := range ix.segs[0].funcs {
			for i, h := range ff.hashes {
				// Checked before the read, which sizes its buffer by the count.
				if off, end := ff.off(i), ff.off(i)+int64(ff.count(i))*postingSize; off < int64(ff.region) || end > int64(ff.dirOff) {
					t.Fatalf("fn %d list %x: postings at [%d, %d), outside the lists at [%d, %d)", fn, h, off, end, ff.region, ff.dirOff)
				}
				seen := len(fsys.readLog())
				ps, err := ix.ReadListInto(nil, fn, h, nil)
				if err != nil || len(ps) != ff.count(i) {
					t.Fatalf("fn %d list %x: read %d postings of %d: %v", fn, h, len(ps), ff.count(i), err)
				}
				n := uint32(ix.Meta().NumTexts)
				for id := uint32(0); id <= n; id++ {
					if _, err := probeText(ix, nil, fn, h, id, nil); err != nil {
						t.Fatalf("fn %d list %x text %d: %v", fn, h, id, err)
					}
				}
				agree := zonesAgree(ff, i, ps)
				for trial := 0; trial < 8; trial++ {
					lo, hi := uint32(rng.Intn(int(n)+2)), uint32(rng.Intn(int(n)+2))
					if lo > hi {
						lo, hi = hi, lo
					}
					got, err := ix.ReadRowsInto(nil, rowsOf(ix, h), fn, lo, hi, nil)
					if err != nil {
						t.Fatalf("fn %d list %x [%d, %d]: %v", fn, h, lo, hi, err)
					}
					want := slices.DeleteFunc(slices.Clone(ps), func(p Posting) bool { return p.TextID < lo || p.TextID > hi })
					if agree && !slices.Equal(got, want) {
						t.Fatalf("fn %d list %x [%d, %d]: read %v, whole read filtered %v", fn, h, lo, hi, got, want)
					}
				}
				for _, r := range fsys.readLog()[seen:] {
					if uint64(r.off) < ff.region || uint64(r.off)+uint64(r.n) > ff.dirOff {
						t.Fatalf("fn %d list %x: read %d bytes at %d, outside the lists at [%d, %d)", fn, h, r.n, r.off, ff.region, ff.dirOff)
					}
				}
			}
		}
	})
}

// zonesAgree reports whether ps, the postings of function file ff's
// directory row i, are sorted by text id and the row's zone map, if
// any, lists the text id of every zoneStep-th of them: then a zone
// window holds every posting of the id range it is taken for.
func zonesAgree(ff *funcFile, i int, ps []Posting) bool {
	if !slices.IsSortedFunc(ps, func(a, b Posting) int { return cmp.Compare(a.TextID, b.TextID) }) {
		return false
	}
	z, ok := ff.zonePos(i)
	if !ok {
		return true
	}
	tab := ff.zoneTab[ff.zones[z].at : ff.zones[z].at+ff.zones[z].count]
	if len(tab) != (len(ps)+ff.zoneStep-1)/ff.zoneStep {
		return false
	}
	for j, id := range tab {
		if ps[j*ff.zoneStep].TextID != id {
			return false
		}
	}
	return true
}

// FuzzGroupByHash checks the grouping on record streams with arbitrary
// hashes — hashes that differ only in their top byte, only in their low
// bits, only above a shared low half, or anywhere — and long runs of
// one hash: the postings must come out as a stable sort by hash (ties
// in input order), and the run table must end each hash's run. One
// output and one scratch serve every input, so leftovers of a larger
// one must not show.
func FuzzGroupByHash(f *testing.F) {
	var (
		out grouped
		tmp []record
	)
	f.Add([]byte{})
	f.Add([]byte{0, 7, 0, 1, 7, 0, 2, 7, 0, 3, 7, 0})
	f.Add([]byte{0, 1, 63, 0, 2, 63, 1, 1, 63, 0, 1, 5}) // long runs
	f.Add(bytes.Repeat([]byte{3, 9, 2, 3, 200, 0, 2, 9, 1, 1, 9, 0}, 20))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var recs []record
		for i := 0; i+3 <= len(raw) && len(recs) < 4096; i += 3 {
			sel, x, rep := raw[i], uint64(raw[i+1]), 1+int(raw[i+2]%64)
			var h uint64
			switch sel % 4 {
			case 0:
				h = x << 56 // low bits all shared
			case 1:
				h = x // high bits all shared
			case 2:
				h = x<<32 | 0xffffffff
			default:
				h = x * 0x9e3779b97f4a7c15
			}
			for ; rep > 0; rep-- {
				recs = append(recs, record{Hash: h, Posting: Posting{TextID: uint32(len(recs)), C: uint32(sel)}})
			}
		}
		want := slices.Clone(recs)
		slices.SortStableFunc(want, func(a, b record) int { return cmp.Compare(a.Hash, b.Hash) })
		out, tmp = groupByHash(recs, out, tmp)
		checkGrouped(t, "fuzz", out, want)
	})
}
