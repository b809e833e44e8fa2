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

// rawDirectory parses an inverted file's directory straight from its
// bytes, without the reader's derived columns.
func rawDirectory(t *testing.T, data []byte) (rows []dirRow, dirOff uint64) {
	t.Helper()
	tr := data[len(data)-trailerLen:]
	dirOff, n := binary.LittleEndian.Uint64(tr), binary.LittleEndian.Uint64(tr[8:])
	for i := uint64(0); i < n; i++ {
		b := data[dirOff+i*dirEntrySize:]
		rows = append(rows, dirRow{
			hash: binary.LittleEndian.Uint64(b), off: binary.LittleEndian.Uint64(b[8:]),
			count: binary.LittleEndian.Uint32(b[16:]), zoneCount: binary.LittleEndian.Uint32(b[20:]),
			zoneOff: binary.LittleEndian.Uint64(b[24:]),
		})
	}
	return rows, dirOff
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
			data, err := os.ReadFile(filepath.Join(dir, seg.name, funcFileName(fn)))
			if err != nil {
				t.Fatal(err)
			}
			rows, _ := rawDirectory(t, data)
			for _, r := range rows {
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

// TestOpenRejectsListOrder hand-writes an inverted file whose first two
// lists trade places, with its directory offsets, both checksums and the
// manifest rewritten to match: every check but the layout passes, and
// Open must refuse the file with a *ListOrderError naming it.
func TestOpenRejectsListOrder(t *testing.T) {
	dir, file := buildOnDisk(t)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	rows, dirOff := rawDirectory(t, data)
	if len(rows) < 2 {
		t.Fatal("degenerate fixture: fewer than two lists")
	}
	span := func(r dirRow) []byte {
		return data[r.off : r.off+uint64(r.count)*postingSize+uint64(r.zoneCount)*zoneEntrySize]
	}
	a, b := span(rows[0]), span(rows[1])
	swapped := slices.Concat(data[:idxHeaderLen], b, a, data[idxHeaderLen+len(a)+len(b):])
	for i, r := range rows[:2] {
		off := uint64(idxHeaderLen)
		if i == 0 {
			off += uint64(len(b))
		}
		e := swapped[dirOff+uint64(i)*dirEntrySize:]
		binary.LittleEndian.PutUint64(e[8:], off)
		if r.zoneCount > 0 {
			binary.LittleEndian.PutUint64(e[24:], off+uint64(r.count)*postingSize)
		}
	}
	regionCRC := crc32.ChecksumIEEE(swapped[idxHeaderLen:dirOff])
	dirCRC := crc32.ChecksumIEEE(swapped[dirOff : len(swapped)-trailerLen])
	binary.LittleEndian.PutUint32(swapped[len(swapped)-8:], regionCRC)
	binary.LittleEndian.PutUint32(swapped[len(swapped)-4:], dirCRC)
	if err := os.WriteFile(file, swapped, 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Segments[0].Files[0].DirCRC, man.Segments[0].Files[0].RegionCRC = dirCRC, regionCRC
	mdata, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFileName), mdata, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir)
	var loe *ListOrderError
	if !errors.As(err, &loe) {
		t.Fatalf("Open of a file with swapped lists: %v, want a *ListOrderError", err)
	}
	if loe.Path != file || !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("diagnostic %q does not name the file %s and the remedy", err, file)
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
	second := uint64(idxHeaderLen) + math.MaxUint32*postingSize
	ok := &funcFile{path: "index.000", dirOff: second}
	if _, err := ok.decodeDirectory(row(1, idxHeaderLen, math.MaxUint32)); err != nil {
		t.Fatalf("MaxUint32 postings: %v", err)
	}
	if got := ok.postings(); got != math.MaxUint32 {
		t.Fatalf("MaxUint32 postings decoded as %d", got)
	}
	over := &funcFile{path: "index.000", dirOff: second + postingSize}
	_, err := over.decodeDirectory(slices.Concat(row(1, idxHeaderLen, math.MaxUint32), row(2, second, 1)))
	var loe *ListOrderError
	if !errors.As(err, &loe) || loe.Path != "index.000" || !strings.Contains(loe.Reason, "postings") {
		t.Fatalf("MaxUint32+1 postings: %v, want a *ListOrderError about the posting count", err)
	}
}
