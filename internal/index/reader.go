package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"slices"
	"time"

	"ndss/internal/fsio"
	"ndss/internal/hash"
)

// Index is an opened index directory: an ordered set of immutable
// segments, each one file holding k inverted files, plus metadata.
// Segment i's texts occupy the global id range [base_i, base_i+NumTexts_i),
// where base_i is the sum of the text counts before it, so reads
// concatenate per-segment lists in segment order and stay sorted by
// global text id. It is safe for concurrent readers.
type Index struct {
	meta    Meta   // aggregate over the segment set
	buildID string // of the manifest the set was opened from
	family  *hash.Family
	segs    []*segment
}

// segment is one opened segment of an Index: the open file it reads,
// which other Index values may share, and what is the Index's own — the
// segment's name, the global text-id base its local ids are offset by,
// its manifest meta and its tombstone bitmap (nil when nothing is
// deleted).
type segment struct {
	*segFile
	name string
	base uint32 // first global text id of this segment
	meta Meta
	tomb *tombSet
}

// funcFile is the resident view of one function's inverted file inside
// a segment file. The directory is the file's two columns — row i
// describes the list of hashes[i], rows ascend by hash — read straight
// into memory, 12 bytes a list: lists lie back to back in hash order
// from the region's start (Open refuses any other layout), so a row's
// count and offset derive from the running posting count in starts and
// the zone side table, kept only for the few (long) lists that have a
// zone map. Lookups stride over 8-byte hashes. The zone maps themselves
// are resident too, so a per-text probe searches memory and reads one
// block.
type funcFile struct {
	*segFile         // the segment file, shared by its k views
	region    uint64 // offset of the function's first list
	hashes    []uint64
	starts    []uint32  // starts[i]: postings in rows before i; len(hashes)+1 entries
	zones     []zoneRef // rows with a zone map, ascending by row
	zoneTab   []uint32  // every zone map's first text ids, back to back
	zoneStep  int       // postings per zone entry
	dirOff    uint64
	regionCRC uint32
}

// zoneRef is the zone-map part of directory row idx: count entries,
// stored right after the row's postings in the file and at
// zoneTab[at:] in memory. at is also the number of zone entries in the
// region before them.
type zoneRef struct {
	idx, count, at uint32
}

// ListOrderError reports a segment file whose directory columns do not
// describe lists lying back to back in strictly ascending hash order,
// each function's from where the previous function's directory ends to
// its own directory, none empty. The resident directory derives every
// list's offset from that layout, so such a file is refused rather than
// served: rebuild the index.
type ListOrderError struct {
	Path   string // segment file
	Reason string // the first row that breaks the layout
}

func (e *ListOrderError) Error() string {
	return fmt.Sprintf("index: %s: %s: lists must lie back to back in hash order; rebuild the index", e.Path, e.Reason)
}

// ReadError reports a failed or short read of a segment file with
// enough context (file, offset, length) to diagnose which part of which
// file is unreadable. It wraps the underlying error, so callers can
// still errors.Is/As through it.
type ReadError struct {
	Path string // segment file the read targeted
	Off  int64  // absolute file offset of the read
	Len  int    // bytes requested
	Err  error  // underlying cause
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("index: read %s @%d (%d bytes): %v", e.Path, e.Off, e.Len, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// Open opens an index directory written by one of the builders.
//
// The directory is cross-checked against its build manifest: every
// segment file must exist with exactly the size and footer checksum the
// manifest records, so a torn commit or a file swapped in from a
// different build is rejected with a diagnostic instead of serving wrong
// results. Segments built with different hash parameters are rejected
// with a *MixedOptionsError, a directory without a manifest with a
// *NoManifestError. A leftover commit backup from an interrupted swap is
// recovered first.
//
// A segment file another open Index of the process already loaded
// through the same filesystem is shared, not loaded again, once a fresh
// stat and a re-read of its footer show it is still the file the
// manifest describes (openSharedFile).
func Open(dir string) (*Index, error) {
	return OpenFS(fsio.OS, dir)
}

// OpenFS is Open reading through an explicit filesystem; tests inject
// fault-carrying implementations.
func OpenFS(fsys fsio.FS, dir string) (*Index, error) {
	if err := recoverBackup(fsys, dir); err != nil {
		return nil, err
	}
	man, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	fam, err := hash.NewFamily(man.Meta.K, man.Meta.Seed)
	if err != nil {
		return nil, err
	}
	ix := &Index{meta: man.Meta, buildID: man.BuildID, family: fam}
	var base int64
	for _, mseg := range man.Segments {
		seg, err := openSegment(fsys, dir, mseg, uint32(base))
		if err != nil {
			ix.Close()
			return nil, err
		}
		ix.segs = append(ix.segs, seg)
		base += int64(mseg.Meta.NumTexts)
	}
	return ix, nil
}

// openSegment opens one segment file, cross-checks it against its
// manifest record, and loads its tombstone bitmap.
func openSegment(fsys fsio.FS, dir string, mseg ManifestSegment, base uint32) (*segment, error) {
	sf, err := openSharedFile(fsys, filepath.Join(dir, mseg.Name), mseg)
	if err != nil {
		return nil, err
	}
	seg := &segment{segFile: sf, name: mseg.Name, base: base, meta: mseg.Meta}
	if mseg.Tomb != nil {
		tomb, err := readTombstone(fsys, dir, mseg.Tomb, mseg.Meta.NumTexts)
		if err != nil {
			seg.release()
			return nil, err
		}
		seg.tomb = tomb
	}
	return seg, nil
}

// openSegmentFile opens the segment file at path, whose header must
// carry meta's K, ZoneMapStep and LongListCutoff, and loads its resident
// function views: one open, one fstat, a read of the header and of the
// footer, a read of each directory column and one per zone map. The
// caller holds the one reference to it.
func openSegmentFile(fsys fsio.FS, path string, meta Meta) (*segFile, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: open segment file: %w", err)
	}
	sf := &segFile{path: path, f: f}
	if err := sf.load(meta); err != nil {
		f.Close()
		return nil, err
	}
	openFiles.hold(sf)
	return sf, nil
}

// read fills buf from the segment file at off and returns the bytes
// ReadAt returned. A failed or short read (truncated file, I/O error)
// is a *ReadError carrying the file, offset and length.
func (s *segFile) read(buf []byte, off int64) (int, error) {
	n, err := s.f.ReadAt(buf, off)
	if err == nil && n < len(buf) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return n, &ReadError{Path: s.path, Off: off, Len: len(buf), Err: err}
	}
	return n, nil
}

func (s *segFile) load(meta Meta) error {
	k := meta.K
	st, err := s.f.Stat()
	if err != nil {
		return err
	}
	s.info, s.size = st, st.Size()
	footStart := s.size - footerLen(k)
	if footStart < segHeaderLen {
		return fmt.Errorf("index: segment file %s too small", s.path)
	}
	var hdr [segHeaderLen]byte
	if _, err := s.read(hdr[:], 0); err != nil {
		return err
	}
	switch string(hdr[:8]) {
	case segMagic:
	case "NDSSSEG1":
		return fmt.Errorf("index: %s: segment format 1 (32-byte directory rows) is no longer read; rebuild the index", s.path)
	default:
		return fmt.Errorf("index: %s: bad magic %q", s.path, hdr[:8])
	}
	fileK, step, cutoff := int(binary.LittleEndian.Uint32(hdr[8:])), int(binary.LittleEndian.Uint32(hdr[12:])), int(binary.LittleEndian.Uint32(hdr[16:]))
	if fileK != k || step != meta.ZoneMapStep || cutoff != meta.LongListCutoff || step == 0 {
		return fmt.Errorf("index: %s: holds %d functions with zone map step %d and long-list cutoff %d, manifest says %d, %d and %d",
			s.path, fileK, step, cutoff, k, meta.ZoneMapStep, meta.LongListCutoff)
	}
	foot := make([]byte, footerLen(k))
	if _, err := s.read(foot, footStart); err != nil {
		return err
	}
	rows := foot[:len(foot)-4]
	s.footerCRC = binary.LittleEndian.Uint32(foot[len(rows):])
	if got := crc32.ChecksumIEEE(rows); got != s.footerCRC {
		return fmt.Errorf("index: %s: footer checksum mismatch (%08x != %08x)", s.path, got, s.footerCRC)
	}
	region := uint64(segHeaderLen)
	s.funcs = make([]*funcFile, k)
	for fn := range s.funcs {
		row := rows[fn*footerRowLen:]
		ff := &funcFile{
			segFile:   s,
			region:    region,
			zoneStep:  step,
			dirOff:    binary.LittleEndian.Uint64(row[0:]),
			regionCRC: binary.LittleEndian.Uint32(row[16:]),
		}
		numLists, dirCRC := binary.LittleEndian.Uint64(row[8:]), binary.LittleEndian.Uint32(row[20:])
		// A directory is 8 bytes of hash and 4 of start a list, plus the
		// closing start.
		if room := uint64(footStart) - ff.dirOff; ff.dirOff > uint64(footStart) || room < 4 || numLists > (room-4)/12 {
			return fmt.Errorf("index: %s: function %d directory (%d lists at %d) runs past the footer", s.path, fn, numLists, ff.dirOff)
		}
		ff.hashes, ff.starts = make([]uint64, numLists), make([]uint32, numLists+1)
		hashBytes, startBytes := bytesOf(ff.hashes), bytesOf(ff.starts)
		if _, err := s.read(hashBytes, int64(ff.dirOff)); err != nil {
			return err
		}
		if _, err := s.read(startBytes, int64(ff.dirOff)+int64(len(hashBytes))); err != nil {
			return err
		}
		if got := crc32.Update(crc32.ChecksumIEEE(hashBytes), crc32.IEEETable, startBytes); got != dirCRC {
			return fmt.Errorf("index: %s: function %d directory checksum mismatch (%08x != %08x)", s.path, fn, got, dirCRC)
		}
		if !hostLittleEndian {
			swapColumns(ff.hashes, ff.starts)
		}
		entries, err := ff.decodeDirectory(cutoff)
		if err == nil {
			err = ff.loadZones(entries)
		}
		if err != nil {
			return err
		}
		s.funcs[fn] = ff
		region = ff.dirOff + uint64(len(hashBytes)+len(startBytes))
	}
	if region != uint64(footStart) {
		return &ListOrderError{Path: s.path, Reason: fmt.Sprintf("functions end at %d, footer starts at %d", region, footStart)}
	}
	return nil
}

// decodeDirectory checks the resident columns against the back-to-back
// layout and derives the zone side table, returning the function's
// number of zone entries: hashes strictly ascend, starts strictly ascend
// from 0 (no list is empty), a list has a zone map exactly when it holds
// more than longCutoff postings, and the lists with their zone maps end
// exactly at dirOff. Anything else is a *ListOrderError.
func (ff *funcFile) decodeDirectory(longCutoff int) (uint32, error) {
	if ff.starts[0] != 0 {
		return 0, ff.orderError("first list starts at posting %d", ff.starts[0])
	}
	var entries uint32
	for i, h := range ff.hashes {
		if i > 0 && h <= ff.hashes[i-1] {
			return 0, ff.orderError("list %x follows list %x", h, ff.hashes[i-1])
		}
		if ff.starts[i+1] <= ff.starts[i] {
			return 0, ff.orderError("list %x runs from posting %d to %d", h, ff.starts[i], ff.starts[i+1])
		}
		if n := ff.count(i); n > longCutoff {
			zc := uint32((n + ff.zoneStep - 1) / ff.zoneStep)
			ff.zones = append(ff.zones, zoneRef{idx: uint32(i), count: zc, at: entries})
			entries += zc
		}
	}
	if end := ff.region + postingSize*uint64(ff.postings()) + zoneEntrySize*uint64(entries); end != ff.dirOff {
		return 0, ff.orderError("lists end at %d, directory starts at %d", end, ff.dirOff)
	}
	return entries, nil
}

func (ff *funcFile) orderError(format string, args ...any) error {
	return &ListOrderError{Path: ff.path, Reason: fmt.Sprintf(format, args...)}
}

// loadZones reads every zone map of the function straight into zoneTab,
// one read per zone-mapped list: 4 bytes of memory per ZoneMapStep
// postings of the long lists. A map's first text ids must not descend —
// the probe's binary search relies on it — so a corrupt one fails Open
// instead of a query.
func (ff *funcFile) loadZones(entries uint32) error {
	ff.zoneTab = make([]uint32, entries)
	for _, z := range ff.zones {
		tab := ff.zoneTab[z.at : z.at+z.count]
		b, off := bytesOf(tab), ff.zoneOff(z)
		if _, err := ff.read(b, off); err != nil {
			return err
		}
		if !hostLittleEndian {
			swapColumns(nil, tab)
		}
		for e := 1; e < len(tab); e++ {
			if tab[e] < tab[e-1] {
				return fmt.Errorf("index: %s: corrupt zone map of list %x: first text ids descend; rebuild the index", ff.path, ff.hashes[z.idx])
			}
		}
	}
	return nil
}

// VerifyIntegrity re-reads every function region of every segment file
// and checks it against the checksum recorded at build time. It reads
// each file fully, so it is an explicit maintenance operation rather
// than part of Open.
func (ix *Index) VerifyIntegrity() error {
	for _, seg := range ix.segs {
		for fn, ff := range seg.funcs {
			h := crc32.NewIEEE()
			region := io.NewSectionReader(ff.f, int64(ff.region), int64(ff.dirOff-ff.region))
			if _, err := io.Copy(h, region); err != nil {
				return fmt.Errorf("index: verify segment %s function %d: %w", seg.name, fn, err)
			}
			if got := h.Sum32(); got != ff.regionCRC {
				return fmt.Errorf("index: segment %s function %d postings region corrupt (crc %08x != %08x)",
					seg.name, fn, got, ff.regionCRC)
			}
		}
	}
	return nil
}

// Close gives up the index's hold on its segment files: each one's
// handle closes with the last open Index that shares it.
func (ix *Index) Close() error {
	var first error
	for _, seg := range ix.segs {
		if err := seg.release(); err != nil && first == nil {
			first = err
		}
	}
	ix.segs = nil
	return first
}

// Meta returns the index metadata, aggregated over the segment set:
// NumTexts and TotalTokens are sums (NumTexts counts the id-space
// width, so it includes tombstoned texts).
func (ix *Index) Meta() Meta { return ix.meta }

// BuildID identifies the committed segment set this index serves; every
// build, append, delete, or compaction commits a fresh id.
func (ix *Index) BuildID() string { return ix.buildID }

// Family returns the hash family the index was built with. Queries must
// sketch with this family.
func (ix *Index) Family() *hash.Family { return ix.family }

// K returns the number of hash functions / inverted files per segment.
func (ix *Index) K() int { return ix.meta.K }

// SegmentCount returns the number of segments in the opened set.
func (ix *Index) SegmentCount() int { return len(ix.segs) }

// SegmentInfo describes one opened segment for tooling and metrics.
type SegmentInfo struct {
	Name        string // the segment file in the index directory
	Base        uint32 // first global text id
	NumTexts    int
	TotalTokens int64
	Postings    int64
	SizeOnDisk  int64
	Tombstoned  int // texts masked by the segment's tombstone bitmap
}

// Segments describes the opened segment set in id order.
func (ix *Index) Segments() []SegmentInfo {
	out := make([]SegmentInfo, len(ix.segs))
	for i, seg := range ix.segs {
		info := SegmentInfo{
			Name:        seg.name,
			Base:        seg.base,
			NumTexts:    seg.meta.NumTexts,
			TotalTokens: seg.meta.TotalTokens,
			Tombstoned:  seg.tomb.count(),
		}
		info.SizeOnDisk = seg.size
		for _, ff := range seg.funcs {
			info.Postings += ff.postings()
		}
		out[i] = info
	}
	return out
}

// zonePos returns the position in zones of directory row i's zone map,
// or where it would be: the number of zone-mapped rows before i.
func (ff *funcFile) zonePos(i int) (int, bool) {
	return slices.BinarySearchFunc(ff.zones, uint32(i), func(r zoneRef, idx uint32) int { return cmp.Compare(r.idx, idx) })
}

// count returns the posting count of directory row i.
func (ff *funcFile) count(i int) int { return int(ff.starts[i+1] - ff.starts[i]) }

// off returns the file offset of directory row i's postings.
func (ff *funcFile) off(i int) int64 {
	z, _ := ff.zonePos(i)
	return ff.rowOff(i, z)
}

// rowOff returns the file offset of directory row i's postings, given
// z, the row's position in zones (zonePos): the region's start, then the
// postings and zone entries of every earlier row.
func (ff *funcFile) rowOff(i, z int) int64 {
	var zoneEntries uint32
	if z < len(ff.zones) {
		zoneEntries = ff.zones[z].at
	} else if z > 0 {
		zoneEntries = ff.zones[z-1].at + ff.zones[z-1].count
	}
	return int64(ff.region) + postingSize*int64(ff.starts[i]) + zoneEntrySize*int64(zoneEntries)
}

// zoneOff returns the file offset of z's zone entries, right after its
// list's postings.
func (ff *funcFile) zoneOff(z zoneRef) int64 {
	return int64(ff.region) + postingSize*int64(ff.starts[z.idx+1]) + zoneEntrySize*int64(z.at)
}

// postings returns the function's total posting count.
func (ff *funcFile) postings() int64 { return int64(ff.starts[len(ff.hashes)]) }

// ListLengths returns the posting counts of every distinct list of
// function fn, unordered. Used to pick prefix-filtering cutoffs.
func (ix *Index) ListLengths(fn int) []int {
	if len(ix.segs) == 1 {
		ff := ix.segs[0].funcs[fn]
		out := make([]int, len(ff.hashes))
		for i := range out {
			out[i] = ff.count(i)
		}
		return out
	}
	counts := make(map[uint64]int)
	for _, seg := range ix.segs {
		ff := seg.funcs[fn]
		for i, h := range ff.hashes {
			counts[h] += ff.count(i)
		}
	}
	out := make([]int, 0, len(counts))
	for _, n := range counts {
		out = append(out, n)
	}
	return out
}

// ReadListInto appends the postings of the list for hash h of function
// fn to dst, with ReadRowsInto's contract: it resolves the one list in
// every segment, none dropped, and reads each portion whole.
func (ix *Index) ReadListInto(dst []Posting, fn int, h uint64, sink *IOStats) ([]Posting, error) {
	out := dst
	for si, seg := range ix.segs {
		ff := seg.funcs[fn]
		var err error
		if out, err = ix.readRange(out, si, ff, ff.resolve(h), 0, math.MaxUint32, sink); err != nil {
			return dst, fmt.Errorf("index: read list %x: %w", h, err)
		}
	}
	return nilIfNothing(dst, out), nil
}

// nilIfNothing returns out, the result of appending to dst, except that
// a nil dst that gained nothing stays nil, as with append. A non-nil dst
// keeps whatever capacity the read grew it to.
func nilIfNothing(dst, out []Posting) []Posting {
	if dst == nil && len(out) == 0 {
		return nil
	}
	return out
}

// readPostings appends the n postings at off to dst: it grows dst and
// reads the file's bytes straight into the new tail, the one copy a
// posting makes. It charges sink, when non-nil, the bytes ReadAt
// returned and the time it took: on a failed or short read too, for
// what was read, not for what was asked. On a failed or short read dst
// comes back at its old length.
func readPostings(dst []Posting, ff *funcFile, off int64, n int, sink *IOStats) ([]Posting, error) {
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	start := time.Now()
	got, err := ff.read(bytesOf(dst[at:]), off)
	if sink != nil {
		sink.BytesRead += int64(got)
		sink.ReadTime += time.Since(start)
	}
	if err != nil {
		return dst[:at], err
	}
	if !hostLittleEndian {
		swapPostings(dst[at:])
	}
	return dst, nil
}

// IOStats is a caller's read sink: the bytes and time of the list reads
// made with it.
type IOStats struct {
	BytesRead int64
	ReadTime  time.Duration
}

// TotalPostings returns the total number of postings (compact windows)
// across all segments and functions — the "number of compact windows
// generated" metric of Fig 2(a–d). Tombstoned postings still on disk
// are included until compaction purges them.
func (ix *Index) TotalPostings() int64 {
	var n int64
	for _, seg := range ix.segs {
		for _, ff := range seg.funcs {
			n += ff.postings()
		}
	}
	return n
}

// SizeOnDisk sums the sizes of every segment file, as validated against
// the manifest at Open. The error is always nil; the signature predates
// that validation.
func (ix *Index) SizeOnDisk() (int64, error) {
	var n int64
	for _, seg := range ix.segs {
		n += seg.size
	}
	return n, nil
}
