package index

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ndss/internal/fsio"
)

// rawFunc is one function's part of a segment file as the file stores
// it: its directory columns, where its lists start (where the previous
// directory ends), where its directory starts, and the header's zone
// parameters.
type rawFunc struct {
	region, dirOff       uint64
	hashes               []uint64
	starts               []uint32
	zoneStep, longCutoff int
}

// rawSegment parses a segment file's header, footer and directory
// columns straight from its bytes, without the reader's checks.
func rawSegment(t testing.TB, data []byte) []rawFunc {
	t.Helper()
	k := int(binary.LittleEndian.Uint32(data[8:]))
	step, cutoff := int(binary.LittleEndian.Uint32(data[12:])), int(binary.LittleEndian.Uint32(data[16:]))
	foot := data[int64(len(data))-footerLen(k):]
	funcs := make([]rawFunc, k)
	region := uint64(segHeaderLen)
	for fn := range funcs {
		dirOff, n := binary.LittleEndian.Uint64(foot[fn*footerRowLen:]), binary.LittleEndian.Uint64(foot[fn*footerRowLen+8:])
		f := rawFunc{region: region, dirOff: dirOff, zoneStep: step, longCutoff: cutoff}
		for i := uint64(0); i < n; i++ {
			f.hashes = append(f.hashes, binary.LittleEndian.Uint64(data[dirOff+8*i:]))
		}
		for i := uint64(0); i <= n; i++ {
			f.starts = append(f.starts, binary.LittleEndian.Uint32(data[dirOff+8*n+4*i:]))
		}
		funcs[fn] = f
		region = dirOff + f.dirLen()
	}
	return funcs
}

// dirLen is the byte length of f's directory columns.
func (f rawFunc) dirLen() uint64 { return 12*uint64(len(f.hashes)) + 4 }

// dirRow is one list as its function's columns place it.
type dirRow struct {
	hash, off        uint64
	count, zoneCount uint32
}

// rows walks f's columns from the region's start: each list's postings
// follow the postings and zone entries of the lists before it, and a
// list longer than the cutoff carries one zone entry per zoneStep
// postings.
func (f rawFunc) rows() []dirRow {
	out := make([]dirRow, len(f.hashes))
	pos := f.region
	for i, h := range f.hashes {
		r := dirRow{hash: h, off: pos, count: f.starts[i+1] - f.starts[i]}
		if int(r.count) > f.longCutoff {
			r.zoneCount = uint32((int(r.count) + f.zoneStep - 1) / f.zoneStep)
		}
		pos += uint64(r.count)*postingSize + uint64(r.zoneCount)*zoneEntrySize
		out[i] = r
	}
	return out
}

// resealSegment writes data, an edited copy of the segment file at path
// in the index at dir, back with every function's checksums, the footer
// checksum and the manifest's record recomputed to match, so Open's
// checks see only the edit's layout. The checksums are recomputed over
// what the footer's dirOff and numLists columns describe, up to the
// first function whose directory they place outside the file's
// functions; Open refuses that one on its layout.
func resealSegment(t *testing.T, dir, path string, data []byte) {
	t.Helper()
	k := int(binary.LittleEndian.Uint32(data[8:]))
	footStart := uint64(int64(len(data)) - footerLen(k))
	rows := data[footStart : len(data)-4]
	region := uint64(segHeaderLen)
	for fn := 0; fn < k; fn++ {
		row := rows[fn*footerRowLen:]
		dirOff, n := binary.LittleEndian.Uint64(row), binary.LittleEndian.Uint64(row[8:])
		if dirOff < region || dirOff > footStart || footStart-dirOff < 4 || n > (footStart-dirOff-4)/12 {
			break
		}
		dirEnd := dirOff + 12*n + 4
		binary.LittleEndian.PutUint32(row[16:], crc32.ChecksumIEEE(data[region:dirOff]))
		binary.LittleEndian.PutUint32(row[20:], crc32.ChecksumIEEE(data[dirOff:dirEnd]))
		region = dirEnd
	}
	footerCRC := crc32.ChecksumIEEE(rows)
	binary.LittleEndian.PutUint32(data[len(data)-4:], footerCRC)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range man.Segments {
		if filepath.Join(dir, man.Segments[i].Name) == path {
			man.Segments[i].Size, man.Segments[i].FooterCRC = int64(len(data)), footerCRC
		}
	}
	mdata, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFileName), mdata, 0o644); err != nil {
		t.Fatal(err)
	}
}

// decodedLists decodes every list of every segment of the index at dir
// from the raw file bytes through decodePosting — tombstoned postings
// dropped, text ids shifted by the segment base, segments in order —
// keyed by function and hash. It also counts the segment portions with
// and without a zone map.
func decodedLists(t *testing.T, dir string, ix *Index) (lists map[int]map[uint64][]Posting, zoned, bare int) {
	t.Helper()
	lists = map[int]map[uint64][]Posting{}
	for fn := 0; fn < ix.K(); fn++ {
		lists[fn] = map[uint64][]Posting{}
		for _, seg := range ix.segs {
			data, err := os.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rawSegment(t, data)[fn].rows() {
				if r.zoneCount > 0 {
					zoned++
				} else {
					bare++
				}
				ps := lists[fn][r.hash]
				for i := uint64(0); i < uint64(r.count); i++ {
					p := decodePosting(data[r.off+i*postingSize:])
					if !seg.tomb.has(p.TextID) {
						p.TextID += seg.base
						ps = append(ps, p)
					}
				}
				lists[fn][r.hash] = ps
			}
		}
	}
	return lists, zoned, bare
}

// TestReadListIntoMatchesDecode checks the arena reads against a
// reference decode of the file bytes: every list of every function
// through ReadListInto, and every text's postings of every list through
// a one-text ReadRowsInto, on one segment and on a base with two appends and
// tombstones, over zone-mapped and zone-less portions alike.
func TestReadListIntoMatchesDecode(t *testing.T) {
	dirs := probeFixtures(t)
	for _, name := range []string{"single", "segmented"} {
		dir := dirs[name]
		ix, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, zoned, bare := decodedLists(t, dir, ix)
		if zoned == 0 || bare == 0 {
			t.Fatalf("%s: degenerate fixture: %d zone-mapped and %d zone-less portions", name, zoned, bare)
		}
		if name == "segmented" && (len(ix.segs) != 3 || ix.segs[0].tomb == nil) {
			t.Fatalf("%s: fixture is not a tombstoned base with two appends", name)
		}
		var got, wantText []Posting
		for fn, byHash := range want {
			for h, list := range byHash {
				if got, err = ix.ReadListInto(got[:0], fn, h, nil); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, list) {
					t.Fatalf("%s: fn %d hash %x: read %v, decoded %v", name, fn, h, got, list)
				}
				for id := uint32(0); id < uint32(ix.Meta().NumTexts); id++ {
					wantText = wantText[:0]
					for _, p := range list {
						if p.TextID == id {
							wantText = append(wantText, p)
						}
					}
					if got, err = probeText(ix, got[:0], fn, h, id, nil); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, wantText) {
						t.Fatalf("%s: fn %d hash %x text %d: probe %v, decoded %v", name, fn, h, id, got, wantText)
					}
				}
			}
		}
		ix.Close()
	}
}

// decodePosting reads a posting's on-disk bytes field by field: the
// oracle the tests hold the byte views to.
func decodePosting(src []byte) Posting {
	return Posting{
		TextID: binary.LittleEndian.Uint32(src[0:]),
		L:      binary.LittleEndian.Uint32(src[4:]),
		C:      binary.LittleEndian.Uint32(src[8:]),
		R:      binary.LittleEndian.Uint32(src[12:]),
	}
}

// TestSwapPostings drives the big-endian fix-up directly, whatever the
// host: it reverses the bytes of every field, and raw little-endian
// bytes landed in the arena read back as decodePosting's postings once
// the host's byte order is accounted for.
func TestSwapPostings(t *testing.T) {
	ps := []Posting{{TextID: 0x01020304, L: 0x05060708, C: 0x090a0b0c, R: 0x0d0e0f10}, {TextID: 1, L: 2, C: 3, R: 4}}
	orig := slices.Clone(ps)
	swapPostings(ps)
	for i, p := range ps {
		o := orig[i]
		if want := (Posting{bits.ReverseBytes32(o.TextID), bits.ReverseBytes32(o.L), bits.ReverseBytes32(o.C), bits.ReverseBytes32(o.R)}); p != want {
			t.Fatalf("posting %d: swapped to %v, want %v", i, p, want)
		}
	}
	swapPostings(ps)
	if !slices.Equal(ps, orig) {
		t.Fatalf("swapping twice gave %v, want %v", ps, orig)
	}

	var raw []byte
	for _, p := range orig {
		raw = appendPosting(raw, p)
	}
	arena := make([]Posting, len(orig))
	copy(bytesOf(arena), raw)
	if !hostLittleEndian {
		swapPostings(arena)
	}
	for i := range arena {
		if want := decodePosting(raw[i*postingSize:]); arena[i] != want {
			t.Fatalf("posting %d: arena holds %v, decodePosting %v", i, arena[i], want)
		}
	}
}

// TestSwapColumns drives the big-endian fix-up of the directory columns
// the same way: every entry's bytes reverse, and little-endian column
// bytes landed through bytesOf read back as the values written once the
// host's byte order is accounted for.
func TestSwapColumns(t *testing.T) {
	hashes, starts := []uint64{0x0102030405060708, 1}, []uint32{0, 0x090a0b0c, 7}
	origHashes, origStarts := slices.Clone(hashes), slices.Clone(starts)
	swapColumns(hashes, starts)
	for i, h := range hashes {
		if want := bits.ReverseBytes64(origHashes[i]); h != want {
			t.Fatalf("hash %d: swapped to %x, want %x", i, h, want)
		}
	}
	for i, s := range starts {
		if want := bits.ReverseBytes32(origStarts[i]); s != want {
			t.Fatalf("start %d: swapped to %x, want %x", i, s, want)
		}
	}
	swapColumns(hashes, starts)
	if !slices.Equal(hashes, origHashes) || !slices.Equal(starts, origStarts) {
		t.Fatalf("swapping twice gave %x %x, want %x %x", hashes, starts, origHashes, origStarts)
	}

	var raw []byte
	for _, h := range origHashes {
		raw = binary.LittleEndian.AppendUint64(raw, h)
	}
	for _, s := range origStarts {
		raw = binary.LittleEndian.AppendUint32(raw, s)
	}
	gotHashes, gotStarts := make([]uint64, len(origHashes)), make([]uint32, len(origStarts))
	hb := bytesOf(gotHashes)
	copy(hb, raw)
	copy(bytesOf(gotStarts), raw[len(hb):])
	if !hostLittleEndian {
		swapColumns(gotHashes, gotStarts)
	}
	if !slices.Equal(gotHashes, origHashes) || !slices.Equal(gotStarts, origStarts) {
		t.Fatalf("columns read as %x %x, want %x %x", gotHashes, gotStarts, origHashes, origStarts)
	}
}

// TestReadListIntoWarmDstAllocsNothing: with a dst already large enough,
// a list read and a per-text probe land in it without allocating, on
// one segment and through the tombstone-filtering path, and resolving a
// sketch again into the same Rows allocates nothing either.
func TestReadListIntoWarmDstAllocsNothing(t *testing.T) {
	dirs := probeFixtures(t)
	for _, name := range []string{"single", "segmented"} {
		ix, err := Open(dirs[name])
		if err != nil {
			t.Fatal(err)
		}
		fn, h, longest := 0, uint64(0), -1
		for _, hh := range ix.Hashes(fn) {
			if n := rowsOf(ix, hh).Len(fn); n > longest {
				h, longest = hh, n
			}
		}
		dst := make([]Posting, 0, longest)
		var sink IOStats
		if n := testing.AllocsPerRun(50, func() { dst, err = ix.ReadListInto(dst[:0], fn, h, &sink) }); n != 0 || err != nil {
			t.Fatalf("%s: ReadListInto with a warm dst: %v allocations, err %v", name, n, err)
		}
		if len(dst) == 0 {
			t.Fatalf("%s: read nothing", name)
		}
		id, rows := dst[len(dst)/2].TextID, rowsOf(ix, h)
		if n := testing.AllocsPerRun(50, func() { dst, err = ix.ReadRowsInto(dst[:0], rows, fn, id, id, &sink) }); n != 0 || err != nil {
			t.Fatalf("%s: one-text ReadRowsInto with a warm dst: %v allocations, err %v", name, n, err)
		}
		if n := testing.AllocsPerRun(50, func() { ix.ResolveRows(rows, rows.hashes) }); n != 0 {
			t.Fatalf("%s: ResolveRows into a resolved Rows: %v allocations", name, n)
		}
		ix.Close()
	}
}

// TestOpenRejectsListOrder hand-writes segment files whose directory
// columns or zone maps break the layout Open derives everything from,
// while every checksum and the manifest are rewritten to match: one case
// per refusal. Open must refuse each with a diagnostic naming the
// segment file and the remedy, a *ListOrderError for every directory
// case.
func TestOpenRejectsListOrder(t *testing.T) {
	// column returns the bytes of f's hashes (starts == false) or
	// starts column within data.
	column := func(data []byte, f rawFunc, starts bool) []byte {
		if starts {
			return data[f.dirOff+8*uint64(len(f.hashes)) : f.dirOff+f.dirLen()]
		}
		return data[f.dirOff : f.dirOff+8*uint64(len(f.hashes))]
	}
	for _, tc := range []struct {
		name, reason string // reason: in the diagnostic, naming the refusal
		order        bool   // want a *ListOrderError
		edit         func(t *testing.T, data []byte, funcs []rawFunc) []byte
	}{
		{"descending hash", "follows list", true, func(t *testing.T, data []byte, funcs []rawFunc) []byte {
			col := column(data, funcs[0], false)
			binary.LittleEndian.PutUint64(col, funcs[0].hashes[1])
			binary.LittleEndian.PutUint64(col[8:], funcs[0].hashes[0])
			return data
		}},
		{"first start not zero", "first list starts at posting 1", true, func(t *testing.T, data []byte, funcs []rawFunc) []byte {
			binary.LittleEndian.PutUint32(column(data, funcs[0], true), 1)
			return data
		}},
		{"empty list", "runs from posting", true, func(t *testing.T, data []byte, funcs []rawFunc) []byte {
			binary.LittleEndian.PutUint32(column(data, funcs[0], true)[4:], funcs[0].starts[2])
			return data
		}},
		{"descending start", "runs from posting", true, func(t *testing.T, data []byte, funcs []rawFunc) []byte {
			binary.LittleEndian.PutUint32(column(data, funcs[0], true)[4:], funcs[0].starts[2]+1)
			return data
		}},
		{"gap before a function", "directory starts at", true, func(t *testing.T, data []byte, funcs []rawFunc) []byte {
			const gap = 16
			f := funcs[1]
			shifted := slices.Concat(data[:f.region], make([]byte, gap), data[f.region:])
			row := shifted[int64(len(shifted))-footerLen(len(funcs))+footerRowLen:]
			binary.LittleEndian.PutUint64(row, f.dirOff+gap)
			return shifted
		}},
		{"gap before the footer", "footer starts at", true, func(t *testing.T, data []byte, funcs []rawFunc) []byte {
			at := int64(len(data)) - footerLen(len(funcs))
			return slices.Concat(data[:at], make([]byte, 4), data[at:])
		}},
		{"descending zone", "first text ids descend", false, func(t *testing.T, data []byte, funcs []rawFunc) []byte {
			for _, r := range funcs[0].rows() {
				if r.zoneCount >= 2 {
					zones := data[r.off+uint64(r.count)*postingSize:]
					binary.LittleEndian.PutUint32(zones, binary.LittleEndian.Uint32(zones[4:])+1)
					return data
				}
			}
			t.Fatal("degenerate fixture: no zone map of two entries")
			return nil
		}},
	} {
		dir := t.TempDir()
		if _, err := Build(testCorpus(t, 30, 40, 100, 50, 61), dir, BuildOptions{K: 2, Seed: 5, T: 5, ZoneMapStep: 4, LongListCutoff: 8}); err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(dir, segmentName(0))
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		funcs := rawSegment(t, data)
		if len(funcs[0].hashes) < 3 {
			t.Fatal("degenerate fixture: fewer than three lists")
		}
		resealSegment(t, dir, file, tc.edit(t, data, funcs))
		_, err = Open(dir)
		var loe *ListOrderError
		if tc.order && (!errors.As(err, &loe) || loe.Path != file) {
			t.Fatalf("%s: Open: %v, want a *ListOrderError", tc.name, err)
		}
		if err == nil || !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), tc.reason) || !strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("%s: diagnostic %v does not name the file %s, %q and the remedy", tc.name, err, file, tc.reason)
		}
	}
}

// TestDecodeDirectoryPostingOverflow: a function's running counts are
// uint32, so the decoder takes exactly MaxUint32 postings, and a column
// whose count wrapped past it — the only way a file can claim more —
// is refused as a *ListOrderError, without a 64 GB file.
func TestDecodeDirectoryPostingOverflow(t *testing.T) {
	// A zone every 2³⁰ postings: MaxUint32 postings carry four entries.
	second := uint64(segHeaderLen) + math.MaxUint32*postingSize
	ok := &funcFile{segFile: &segFile{path: "seg-000000"}, region: segHeaderLen, dirOff: second + 4*zoneEntrySize, zoneStep: 1 << 30,
		hashes: []uint64{1}, starts: []uint32{0, math.MaxUint32}}
	if entries, err := ok.decodeDirectory(0); err != nil || entries != 4 {
		t.Fatalf("MaxUint32 postings: %d zone entries, %v", entries, err)
	}
	if got := ok.postings(); got != math.MaxUint32 {
		t.Fatalf("MaxUint32 postings decoded as %d", got)
	}
	over := &funcFile{segFile: &segFile{path: "seg-000000"}, region: segHeaderLen, dirOff: second + 4*zoneEntrySize + postingSize, zoneStep: 1 << 30,
		hashes: []uint64{1, 2}, starts: []uint32{0, math.MaxUint32, 0}}
	_, err := over.decodeDirectory(0)
	var loe *ListOrderError
	if !errors.As(err, &loe) || loe.Path != "seg-000000" || !strings.Contains(loe.Reason, "posting") {
		t.Fatalf("MaxUint32+1 postings: %v, want a *ListOrderError about the posting count", err)
	}
}

// TestWriterRejectsPostingOverflow seeds the writer's running count so
// that one more list takes the function past MaxUint32 postings: the
// writer takes a list that reaches MaxUint32 exactly and refuses the
// next with a *PostingOverflowError before writing any byte of it.
func TestWriterRejectsPostingOverflow(t *testing.T) {
	w := newTestWriter(t)
	defer w.abort()
	w.hashes, w.starts = []uint64{1}, []uint32{0, math.MaxUint32 - 1}
	if err := w.addList(2, listOf(1)); err != nil {
		t.Fatalf("list reaching MaxUint32 postings: %v", err)
	}
	pos, buffered := w.pos, len(w.out)
	err := w.addList(3, listOf(1))
	var poe *PostingOverflowError
	if !errors.As(err, &poe) || poe.Path != w.path || poe.Hash != 3 || poe.Postings != math.MaxUint32+1 {
		t.Fatalf("list past MaxUint32 postings: %v, want a *PostingOverflowError for list 3 at %d postings", err, uint64(math.MaxUint32)+1)
	}
	if w.pos != pos || len(w.out) != buffered || len(w.hashes) != 2 {
		t.Fatalf("refused list moved the writer: pos %d → %d, buffered %d → %d, %d lists", pos, w.pos, buffered, len(w.out), len(w.hashes))
	}
}

// TestOpenRefusesSegmentFormat1 hand-makes a segment file of format 1 —
// 16-byte header, one list of one posting, one 32-byte directory row —
// under a manifest that matches it: Open refuses it, saying to rebuild.
func TestOpenRefusesSegmentFormat1(t *testing.T) {
	dir := t.TempDir()
	data := binary.LittleEndian.AppendUint32([]byte("NDSSSEG1"), 1)
	data = binary.LittleEndian.AppendUint32(data, 0) // flags
	data = appendPosting(data, Posting{TextID: 0, L: 0, C: 1, R: 2})
	row := binary.LittleEndian.AppendUint64(nil, 42)  // hash
	row = binary.LittleEndian.AppendUint64(row, 16)   // postingsOff
	row = binary.LittleEndian.AppendUint32(row, 1)    // count
	row = append(row, make([]byte, 12)...)            // zoneCount, zoneOff
	foot := binary.LittleEndian.AppendUint64(nil, 32) // dirOff
	foot = binary.LittleEndian.AppendUint64(foot, 1)  // numLists
	foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(data[16:]))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(row))
	footerCRC := crc32.ChecksumIEEE(foot)
	data = binary.LittleEndian.AppendUint32(slices.Concat(data, row, foot), footerCRC)
	file := filepath.Join(dir, segmentName(0))
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	meta := Meta{K: 1, Seed: 1, T: 2, NumTexts: 1, TotalTokens: 3, ZoneMapStep: 1024, LongListCutoff: 4096}
	mdata, err := json.Marshal(newManifest(meta, segSum{size: int64(len(data)), footerCRC: footerCRC}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFileName), mdata, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil || !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("format-1 segment file: %v, want a refusal naming %s that says to rebuild", err, file)
	}
}
