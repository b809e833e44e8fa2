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

// dirRow is one directory row as the file stores it.
type dirRow struct {
	hash, off, zoneOff uint64
	count, zoneCount   uint32
}

// rawFunc is one function's part of a segment file as the file stores
// it: the directory rows, where the function's lists start (where the
// previous directory ends) and where its directory starts.
type rawFunc struct {
	region, dirOff uint64
	rows           []dirRow
}

// rawSegment parses a segment file's footer and directories straight
// from its bytes, without the reader's derived columns or checks.
func rawSegment(t *testing.T, data []byte) []rawFunc {
	t.Helper()
	k := int(binary.LittleEndian.Uint32(data[8:]))
	foot := data[int64(len(data))-footerLen(k):]
	funcs := make([]rawFunc, k)
	region := uint64(segHeaderLen)
	for fn := range funcs {
		dirOff, n := binary.LittleEndian.Uint64(foot[fn*footerRowLen:]), binary.LittleEndian.Uint64(foot[fn*footerRowLen+8:])
		f := rawFunc{region: region, dirOff: dirOff}
		for i := uint64(0); i < n; i++ {
			b := data[dirOff+i*dirEntrySize:]
			f.rows = append(f.rows, dirRow{
				hash: binary.LittleEndian.Uint64(b), off: binary.LittleEndian.Uint64(b[8:]),
				count: binary.LittleEndian.Uint32(b[16:]), zoneCount: binary.LittleEndian.Uint32(b[20:]),
				zoneOff: binary.LittleEndian.Uint64(b[24:]),
			})
		}
		funcs[fn] = f
		region = dirOff + n*dirEntrySize
	}
	return funcs
}

// resealSegment writes data, an edited copy of the segment file at path
// in the index at dir, back with every function's checksums, the footer
// checksum and the manifest's record recomputed to match, so Open's
// checks see only the edit's layout. The footer's dirOff and numLists
// columns must already describe data.
func resealSegment(t *testing.T, dir, path string, data []byte) {
	t.Helper()
	funcs := rawSegment(t, data)
	rows := data[int64(len(data))-footerLen(len(funcs)) : len(data)-4]
	for fn, f := range funcs {
		dirEnd := f.dirOff + uint64(len(f.rows))*dirEntrySize
		binary.LittleEndian.PutUint32(rows[fn*footerRowLen+16:], crc32.ChecksumIEEE(data[f.region:f.dirOff]))
		binary.LittleEndian.PutUint32(rows[fn*footerRowLen+20:], crc32.ChecksumIEEE(data[f.dirOff:dirEnd]))
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
			for _, r := range rawSegment(t, data)[fn].rows {
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
// ReadListForTextInto, on one segment and on a base with two appends and
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
					if got, err = ix.ReadListForTextInto(got[:0], fn, h, id, nil); err != nil {
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

	raw := make([]byte, len(orig)*postingSize)
	for i, p := range orig {
		encodePosting(raw[i*postingSize:], p)
	}
	arena := make([]Posting, len(orig))
	copy(postingBytes(arena), raw)
	if !hostLittleEndian {
		swapPostings(arena)
	}
	for i := range arena {
		if want := decodePosting(raw[i*postingSize:]); arena[i] != want {
			t.Fatalf("posting %d: arena holds %v, decodePosting %v", i, arena[i], want)
		}
	}
}

// TestReadListIntoWarmDstAllocsNothing: with a dst already large enough,
// a list read and a per-text probe land in it without allocating, on
// one segment and through the tombstone-filtering path.
func TestReadListIntoWarmDstAllocsNothing(t *testing.T) {
	dirs := probeFixtures(t)
	for _, name := range []string{"single", "segmented"} {
		ix, err := Open(dirs[name])
		if err != nil {
			t.Fatal(err)
		}
		fn, h, longest := 0, uint64(0), -1
		for _, hh := range ix.Hashes(fn) {
			if n := ix.ListLength(fn, hh); n > longest {
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
		id := dst[len(dst)/2].TextID
		if n := testing.AllocsPerRun(50, func() { dst, err = ix.ReadListForTextInto(dst[:0], fn, h, id, &sink) }); n != 0 || err != nil {
			t.Fatalf("%s: ReadListForTextInto with a warm dst: %v allocations, err %v", name, n, err)
		}
		ix.Close()
	}
}

// TestOpenRejectsListOrder hand-writes segment files that break the
// back-to-back layout while every checksum and the manifest are
// rewritten to match: one whose first two lists of function 0 trade
// places, and one whose function 1 starts 16 bytes after function 0's
// directory ends. Open must refuse each with a *ListOrderError naming
// the segment file.
func TestOpenRejectsListOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, data []byte, funcs []rawFunc) []byte
	}{
		{"swapped lists", func(t *testing.T, data []byte, funcs []rawFunc) []byte {
			f := funcs[0]
			if len(f.rows) < 2 {
				t.Fatal("degenerate fixture: fewer than two lists")
			}
			span := func(r dirRow) []byte {
				return data[r.off : r.off+uint64(r.count)*postingSize+uint64(r.zoneCount)*zoneEntrySize]
			}
			a, b := span(f.rows[0]), span(f.rows[1])
			swapped := slices.Concat(data[:f.region], b, a, data[f.region+uint64(len(a)+len(b)):])
			for i, r := range f.rows[:2] {
				off := f.region
				if i == 0 {
					off += uint64(len(b))
				}
				e := swapped[f.dirOff+uint64(i)*dirEntrySize:]
				binary.LittleEndian.PutUint64(e[8:], off)
				if r.zoneCount > 0 {
					binary.LittleEndian.PutUint64(e[24:], off+uint64(r.count)*postingSize)
				}
			}
			return swapped
		}},
		{"gap before a function", func(t *testing.T, data []byte, funcs []rawFunc) []byte {
			const gap = 16
			f := funcs[1]
			shifted := slices.Concat(data[:f.region], make([]byte, gap), data[f.region:])
			for i, r := range f.rows {
				e := shifted[f.dirOff+gap+uint64(i)*dirEntrySize:]
				binary.LittleEndian.PutUint64(e[8:], r.off+gap)
				if r.zoneCount > 0 {
					binary.LittleEndian.PutUint64(e[24:], r.zoneOff+gap)
				}
			}
			row := shifted[int64(len(shifted))-footerLen(len(funcs))+footerRowLen:]
			binary.LittleEndian.PutUint64(row, f.dirOff+gap)
			return shifted
		}},
	} {
		dir, file := buildOnDisk(t)
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		resealSegment(t, dir, file, tc.edit(t, data, rawSegment(t, data)))
		_, err = Open(dir)
		var loe *ListOrderError
		if !errors.As(err, &loe) {
			t.Fatalf("%s: Open: %v, want a *ListOrderError", tc.name, err)
		}
		if loe.Path != file || !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("%s: diagnostic %q does not name the file %s and the remedy", tc.name, err, file)
		}
	}
}

// TestDecodeDirectoryPostingOverflow feeds the directory decoder rows
// that lie back to back in hash order but count one posting more than a
// uint32 holds: the resident running counts cannot represent the file,
// so it is refused as a *ListOrderError — without a 64 GB file.
func TestDecodeDirectoryPostingOverflow(t *testing.T) {
	row := func(h, off uint64, count uint32) []byte {
		b := make([]byte, dirEntrySize)
		binary.LittleEndian.PutUint64(b, h)
		binary.LittleEndian.PutUint64(b[8:], off)
		binary.LittleEndian.PutUint32(b[16:], count)
		return b
	}
	second := uint64(segHeaderLen) + math.MaxUint32*postingSize
	ok := &funcFile{path: "seg-000000", region: segHeaderLen, dirOff: second}
	if _, err := ok.decodeDirectory(row(1, segHeaderLen, math.MaxUint32)); err != nil {
		t.Fatalf("MaxUint32 postings: %v", err)
	}
	if got := ok.postings(); got != math.MaxUint32 {
		t.Fatalf("MaxUint32 postings decoded as %d", got)
	}
	over := &funcFile{path: "seg-000000", region: segHeaderLen, dirOff: second + postingSize}
	_, err := over.decodeDirectory(slices.Concat(row(1, segHeaderLen, math.MaxUint32), row(2, second, 1)))
	var loe *ListOrderError
	if !errors.As(err, &loe) || loe.Path != "seg-000000" || !strings.Contains(loe.Reason, "postings") {
		t.Fatalf("MaxUint32+1 postings: %v, want a *ListOrderError about the posting count", err)
	}
}
