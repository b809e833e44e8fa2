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
	"sort"
	"sync/atomic"
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

	// I/O accounting for the latency-split experiments (Fig 3). Updated
	// atomically on every read.
	bytesRead atomic.Int64
	readNanos atomic.Int64
}

// segment is one opened immutable segment file: its k function views,
// the global text-id base its local ids are offset by, and its tombstone
// bitmap (nil when nothing is deleted).
type segment struct {
	name      string
	path      string
	f         fsio.File
	size      int64
	footerCRC uint32
	base      uint32 // first global text id of this segment
	meta      Meta
	funcs     []*funcFile
	tomb      *tombSet
}

// funcFile is the resident view of one function's inverted file inside
// a segment file. The directory is held column-wise — row i describes
// the list of hashes[i], rows ascend by hash — in 12 bytes a list
// instead of the 32 of a dirEntry: lists lie back to back in hash order
// from the region's start (Open refuses any other layout), so a row's
// count and offset derive from the running posting count in starts and
// the zone side table, kept only for the few (long) lists that have a
// zone map. Lookups stride over 8-byte hashes. The zone maps themselves
// are resident too, so a per-text probe searches memory and reads one
// block.
type funcFile struct {
	f         fsio.File // the segment file, shared by its k views
	path      string
	region    uint64 // offset of the function's first list
	hashes    []uint64
	starts    []uint32  // starts[i]: postings in rows before i; len(hashes)+1 entries
	zones     []zoneRef // rows with a zone map, ascending by row
	zoneTab   []uint32  // every zone map's (firstTextID, ord) pairs, back to back
	dirOff    uint64
	regionCRC uint32
}

// zoneRef is the zone-map part of directory row idx: count entries,
// stored right after the row's postings in the file and at
// zoneTab[2*at:] in memory. at is also the number of zone entries in
// the region before them.
type zoneRef struct {
	idx, count, at uint32
}

// ListOrderError reports a segment file whose lists do not lie back to
// back in strictly ascending hash order, each function's from where the
// previous function's directory ends to its own directory, or a
// function that holds more postings than a uint32 counts. The resident
// directory derives every list's offset from that layout, so such a
// file is refused rather than served: rebuild the index.
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
	seg, err := openSegmentFile(fsys, filepath.Join(dir, mseg.Name), mseg.Meta.K)
	if err != nil {
		return nil, err
	}
	seg.name, seg.base, seg.meta = mseg.Name, base, mseg.Meta
	if seg.size != mseg.Size || seg.footerCRC != mseg.FooterCRC {
		seg.close()
		return nil, fmt.Errorf("index: %s: size %d and footer checksum %08x do not match manifest (size %d, footer %08x): file from a torn or mixed build",
			seg.path, seg.size, seg.footerCRC, mseg.Size, mseg.FooterCRC)
	}
	if mseg.Tomb != nil {
		tomb, err := readTombstone(fsys, dir, mseg.Tomb, mseg.Meta.NumTexts)
		if err != nil {
			seg.close()
			return nil, err
		}
		seg.tomb = tomb
	}
	return seg, nil
}

// close releases the segment file's handle.
func (s *segment) close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f, s.funcs = nil, nil
	return err
}

// openSegmentFile opens the k-function segment file at path and loads
// its resident function views: one open, one fstat, a read of the header
// and of the footer, one read per non-empty directory and one per zone
// map.
func openSegmentFile(fsys fsio.FS, path string, k int) (*segment, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: open segment file: %w", err)
	}
	seg := &segment{path: path, f: f}
	if err := seg.load(k); err != nil {
		f.Close()
		return nil, err
	}
	return seg, nil
}

// read fills buf from the segment file at off.
func (s *segment) read(buf []byte, off int64) error {
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return &ReadError{Path: s.path, Off: off, Len: len(buf), Err: err}
	}
	return nil
}

func (s *segment) load(k int) error {
	st, err := s.f.Stat()
	if err != nil {
		return err
	}
	s.size = st.Size()
	footStart := s.size - footerLen(k)
	if footStart < segHeaderLen {
		return fmt.Errorf("index: segment file %s too small", s.path)
	}
	var hdr [segHeaderLen]byte
	if err := s.read(hdr[:], 0); err != nil {
		return err
	}
	if string(hdr[:8]) != segMagic {
		return fmt.Errorf("index: %s: bad magic %q", s.path, hdr[:8])
	}
	if got := binary.LittleEndian.Uint32(hdr[8:]); got != uint32(k) {
		return fmt.Errorf("index: %s: holds %d functions, want %d", s.path, got, k)
	}
	foot := make([]byte, footerLen(k))
	if err := s.read(foot, footStart); err != nil {
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
			f:         s.f,
			path:      s.path,
			region:    region,
			dirOff:    binary.LittleEndian.Uint64(row[0:]),
			regionCRC: binary.LittleEndian.Uint32(row[16:]),
		}
		numLists, dirCRC := binary.LittleEndian.Uint64(row[8:]), binary.LittleEndian.Uint32(row[20:])
		if ff.dirOff > uint64(footStart) || numLists > (uint64(footStart)-ff.dirOff)/dirEntrySize {
			return fmt.Errorf("index: %s: function %d directory (%d lists at %d) runs past the footer", s.path, fn, numLists, ff.dirOff)
		}
		buf := make([]byte, numLists*dirEntrySize)
		if len(buf) > 0 {
			if err := s.read(buf, int64(ff.dirOff)); err != nil {
				return err
			}
		}
		if got := crc32.ChecksumIEEE(buf); got != dirCRC {
			return fmt.Errorf("index: %s: function %d directory checksum mismatch (%08x != %08x)", s.path, fn, got, dirCRC)
		}
		entries, err := ff.decodeDirectory(buf)
		if err == nil {
			err = ff.loadZones(entries)
		}
		if err != nil {
			return err
		}
		s.funcs[fn] = ff
		region = ff.dirOff + uint64(len(buf))
	}
	if region != uint64(footStart) {
		return &ListOrderError{Path: s.path, Reason: fmt.Sprintf("functions end at %d, footer starts at %d", region, footStart)}
	}
	return nil
}

// decodeDirectory loads the directory rows in buf into the resident
// columns and returns the function's number of zone entries. Every row's
// postingsOff and zoneOff must be the offset the columns derive — lists
// back to back from the region's start to dirOff in strictly ascending
// hash order — and the function may hold at most MaxUint32 postings;
// anything else is a *ListOrderError.
func (ff *funcFile) decodeDirectory(buf []byte) (uint32, error) {
	n := len(buf) / dirEntrySize
	ff.hashes = make([]uint64, n)
	ff.starts = make([]uint32, n+1)
	var postings uint64
	var entries uint32
	pos := ff.region
	for i := range ff.hashes {
		b := buf[i*dirEntrySize:]
		h, off := binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:])
		count, zc := uint64(binary.LittleEndian.Uint32(b[16:])), binary.LittleEndian.Uint32(b[20:])
		if i > 0 && h <= ff.hashes[i-1] {
			return 0, ff.orderError("list %x follows list %x", h, ff.hashes[i-1])
		}
		if off != pos {
			return 0, ff.orderError("list %x at offset %d, want %d", h, off, pos)
		}
		ff.hashes[i], ff.starts[i] = h, uint32(postings)
		if postings += count; postings > math.MaxUint32 {
			return 0, ff.orderError("%d postings by list %x exceed %d", postings, h, uint32(math.MaxUint32))
		}
		pos += count * postingSize
		if zc > 0 {
			if zoff := binary.LittleEndian.Uint64(b[24:]); zoff != pos {
				return 0, ff.orderError("zone map of list %x at offset %d, want %d", h, zoff, pos)
			}
			ff.zones = append(ff.zones, zoneRef{idx: uint32(i), count: zc, at: entries})
			entries += zc
			pos += uint64(zc) * zoneEntrySize
		}
		if pos > ff.dirOff {
			return 0, ff.orderError("list %x ends at %d, past the directory at %d", h, pos, ff.dirOff)
		}
	}
	if pos != ff.dirOff {
		return 0, ff.orderError("lists end at %d, directory starts at %d", pos, ff.dirOff)
	}
	ff.starts[n] = uint32(postings)
	return entries, nil
}

func (ff *funcFile) orderError(format string, args ...any) error {
	return &ListOrderError{Path: ff.path, Reason: fmt.Sprintf(format, args...)}
}

// loadZones reads every zone map of the function into zoneTab, one read
// per zone-mapped list: 8 bytes of memory per ZoneMapStep postings of
// the long lists. A map's ordinals must start at 0 and ascend within its
// list, and its first text ids must not descend — the probe's block
// arithmetic relies on both — so a corrupt one fails Open instead of a
// query.
func (ff *funcFile) loadZones(entries uint32) error {
	ff.zoneTab = make([]uint32, 0, 2*int(entries))
	var buf []byte
	for _, z := range ff.zones {
		n := int(z.count) * zoneEntrySize
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		b := buf[:n]
		off := ff.zoneOff(z)
		if _, err := ff.f.ReadAt(b, off); err != nil {
			return &ReadError{Path: ff.path, Off: off, Len: n, Err: err}
		}
		prevFirst, prevOrd := uint32(0), uint32(0)
		for e := 0; e < n; e += zoneEntrySize {
			first, ord := binary.LittleEndian.Uint32(b[e:]), binary.LittleEndian.Uint32(b[e+4:])
			if ord >= uint32(ff.count(int(z.idx))) || e == 0 && ord != 0 || e > 0 && (ord <= prevOrd || first < prevFirst) {
				return fmt.Errorf("index: %s: corrupt zone map of list %x", ff.path, ff.hashes[z.idx])
			}
			ff.zoneTab = append(ff.zoneTab, first, ord)
			prevFirst, prevOrd = first, ord
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

// Close releases all file handles.
func (ix *Index) Close() error {
	var first error
	for _, seg := range ix.segs {
		if err := seg.close(); err != nil && first == nil {
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

// find returns the directory row of the list for hash h.
func (ff *funcFile) find(h uint64) (int, bool) {
	return slices.BinarySearch(ff.hashes, h)
}

// zonePos returns the position in zones of directory row i's zone map,
// or where it would be: the number of zone-mapped rows before i.
func (ff *funcFile) zonePos(i int) (int, bool) {
	return slices.BinarySearchFunc(ff.zones, uint32(i), func(r zoneRef, idx uint32) int { return cmp.Compare(r.idx, idx) })
}

// zone returns the zone-map reference of directory row i, if the list
// has a zone map.
func (ff *funcFile) zone(i int) (zoneRef, bool) {
	z, ok := ff.zonePos(i)
	if !ok {
		return zoneRef{}, false
	}
	return ff.zones[z], true
}

// count returns the posting count of directory row i.
func (ff *funcFile) count(i int) int { return int(ff.starts[i+1] - ff.starts[i]) }

// off returns the file offset of directory row i's postings: the
// region's start, then the postings and zone entries of every earlier
// row.
func (ff *funcFile) off(i int) int64 {
	var zoneEntries uint32
	if z, _ := ff.zonePos(i); z < len(ff.zones) {
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

// ListLength returns the posting count of the inverted list for hash h
// in function fn across all segments, without any I/O (directories are
// memory-resident). Tombstoned postings are included: the count is the
// on-disk list length the planner budgets reads with.
func (ix *Index) ListLength(fn int, h uint64) int {
	n := 0
	for _, seg := range ix.segs {
		if i, ok := seg.funcs[fn].find(h); ok {
			n += seg.funcs[fn].count(i)
		}
	}
	return n
}

// HasZoneMap reports whether per-text probes (ReadListForTextInto) into the
// list for hash h of function fn stay within about one zone block each.
// A probe touches only the segment owning the text, so the rule is per
// (list, segment) portion: at least one portion carries a zone map, and
// every portion without one is at most its segment's ZoneMapStep
// postings, which a probe reads whole and filters. On one segment that
// is exactly "the list has a zone map"; on a segmented index a
// zone-mapped base keeps the list probeable beside small appends.
func (ix *Index) HasZoneMap(fn int, h uint64) bool {
	zoned := false
	for _, seg := range ix.segs {
		ff := seg.funcs[fn]
		i, ok := ff.find(h)
		if !ok {
			continue
		}
		if _, ok := ff.zone(i); ok {
			zoned = true
		} else if ff.count(i) > seg.meta.ZoneMapStep {
			return false
		}
	}
	return zoned
}

// Hashes returns every min-hash value that has an inverted list in
// function fn, in ascending order, deduplicated across segments.
func (ix *Index) Hashes(fn int) []uint64 {
	if len(ix.segs) == 1 {
		return slices.Clone(ix.segs[0].funcs[fn].hashes)
	}
	var all []uint64
	for _, seg := range ix.segs {
		all = append(all, seg.funcs[fn].hashes...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

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

// readAt wraps ReadAt with I/O accounting: the index-wide cumulative
// counters always, plus the caller's per-query sink when non-nil. seg
// is the ordinal of the segment being read; when the sink carries a
// PerSegment slice the read is attributed to it. The counters record
// the bytes ReadAt actually returned, so a failed or short read
// (truncated file, I/O error) is charged for what was read, not for
// what was asked. Failures come back as *ReadError carrying the file,
// offset and length.
func (ix *Index) readAt(ff *funcFile, seg int, buf []byte, off int64, sink *IOStats) error {
	start := time.Now()
	n, err := ff.f.ReadAt(buf, off)
	elapsed := time.Since(start)
	ix.readNanos.Add(int64(elapsed))
	ix.bytesRead.Add(int64(n))
	if sink != nil {
		sink.BytesRead += int64(n)
		sink.ReadTime += elapsed
		if seg < len(sink.PerSegment) {
			sink.PerSegment[seg].BytesRead += int64(n)
			sink.PerSegment[seg].ReadTime += elapsed
		}
	}
	if err == nil && n < len(buf) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return &ReadError{Path: ff.path, Off: off, Len: len(buf), Err: err}
	}
	return nil
}

// ReadListInto appends the postings of the list for hash h of function
// fn to dst and returns the extended slice, recording the read's bytes
// and latency into sink (when non-nil) in addition to the index-wide
// cumulative counters. Per-segment lists are concatenated in segment
// order with text ids remapped to the global id space (the result stays
// sorted by text id) and tombstoned postings dropped. dst may be nil;
// reusing it across reads avoids per-list allocations: postings are read
// straight into dst's tail, so a warm dst makes a read allocation-free.
// The appended postings never alias index storage. On error dst comes
// back as passed; a nil dst that gains nothing stays nil.
func (ix *Index) ReadListInto(dst []Posting, fn int, h uint64, sink *IOStats) ([]Posting, error) {
	out := dst
	for si, seg := range ix.segs {
		ff := seg.funcs[fn]
		i, ok := ff.find(h)
		if !ok {
			continue
		}
		var err error
		if out, err = ix.readListEntry(out, si, seg, ff, i, sink); err != nil {
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

// ReadListForTextInto appends only the postings of (global) textID
// within the list for hash h of function fn to dst, recording I/O into
// sink, with the same reuse contract as ReadListInto. Only the segment
// owning the id is touched: a portion with a zone map is probed through
// its resident table, one read proportional to the zone step rather
// than the list length; a portion without one is read fully and
// filtered.
func (ix *Index) ReadListForTextInto(dst []Posting, fn int, h uint64, textID uint32, sink *IOStats) ([]Posting, error) {
	si, seg := ix.owningSegment(textID)
	if seg == nil {
		return dst, nil
	}
	local := textID - seg.base
	if seg.tomb.has(local) {
		return dst, nil
	}
	ff := seg.funcs[fn]
	i, ok := ff.find(h)
	if !ok {
		return dst, nil
	}
	startOrd, endOrd := 0, ff.count(i)
	if z, ok := ff.zone(i); ok {
		// The first zone whose FirstTextID > local bounds the probe on
		// the right; it starts one zone before the first zone with
		// FirstTextID >= local (the text's postings may begin mid-zone).
		tab, n := ff.zoneTab[2*z.at:2*(z.at+z.count)], int(z.count)
		hi := sort.Search(n, func(j int) bool { return tab[2*j] > local })
		if hi == 0 {
			// The list's very first posting already has a larger text id.
			return dst, nil
		}
		lo := sort.Search(hi, func(j int) bool { return tab[2*j] >= local })
		if lo > 0 {
			lo--
		}
		startOrd = int(tab[2*lo+1])
		if hi < n {
			endOrd = int(tab[2*hi+1])
		}
	}
	out, err := ix.readPostings(dst, ff, si, ff.off(i)+int64(startOrd)*postingSize, endOrd-startOrd, sink)
	if err != nil {
		return dst, fmt.Errorf("index: probe list %x: %w", h, err)
	}
	return nilIfNothing(dst, keepText(out, len(dst), local, seg.base)), nil
}

// owningSegment locates the segment whose id range covers the global
// textID. Segment sets are small, so a linear scan beats a search.
func (ix *Index) owningSegment(textID uint32) (int, *segment) {
	for si, seg := range ix.segs {
		if textID >= seg.base && uint64(textID) < uint64(seg.base)+uint64(seg.meta.NumTexts) {
			return si, seg
		}
	}
	return -1, nil
}

// keepText compacts dst[at:], segment-local postings sorted by text id,
// in place down to those of the local id, remapped by base. The scan
// stops at the first larger id.
func keepText(dst []Posting, at int, local, base uint32) []Posting {
	w := at
	for _, p := range dst[at:] {
		if p.TextID > local {
			break
		}
		if p.TextID == local {
			p.TextID += base
			dst[w] = p
			w++
		}
	}
	return dst[:w]
}

// readPostings appends the n postings at off to dst: it grows dst and
// reads the file's bytes straight into the new tail, the one copy a
// posting makes. On a failed or short read dst comes back at its old
// length.
func (ix *Index) readPostings(dst []Posting, ff *funcFile, si int, off int64, n int, sink *IOStats) ([]Posting, error) {
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	if err := ix.readAt(ff, si, postingBytes(dst[at:]), off, sink); err != nil {
		return dst[:at], err
	}
	if !hostLittleEndian {
		swapPostings(dst[at:])
	}
	return dst, nil
}

// readListEntry reads directory row i, one segment's portion of a list,
// remapping text ids into the global space and dropping tombstoned
// postings in place.
func (ix *Index) readListEntry(dst []Posting, si int, seg *segment, ff *funcFile, i int, sink *IOStats) ([]Posting, error) {
	at := len(dst)
	dst, err := ix.readPostings(dst, ff, si, ff.off(i), ff.count(i), sink)
	if err != nil || seg.base == 0 && seg.tomb == nil {
		return dst, err
	}
	w := at
	for _, p := range dst[at:] {
		if seg.tomb.has(p.TextID) {
			continue
		}
		p.TextID += seg.base
		dst[w] = p
		w++
	}
	return dst[:w], nil
}

// SegmentIO is one segment's share of a read's I/O accounting.
type SegmentIO struct {
	BytesRead int64
	ReadTime  time.Duration
}

// IOStats is read accounting: an index's cumulative counters since
// Open, or a caller's sink. When PerSegment is non-nil (sized by the
// caller to the segment count), reads passing through the sink are
// additionally attributed to the segment they touched.
type IOStats struct {
	BytesRead  int64
	ReadTime   time.Duration
	PerSegment []SegmentIO
}

// Reset zeroes the counters, keeping the PerSegment slice's capacity so
// pooled sinks do not reallocate per query.
func (s *IOStats) Reset() {
	per := s.PerSegment[:0]
	*s = IOStats{}
	s.PerSegment = per
}

// IOStats returns cumulative I/O counters.
func (ix *Index) IOStats() IOStats {
	return IOStats{
		BytesRead: ix.bytesRead.Load(),
		ReadTime:  time.Duration(ix.readNanos.Load()),
	}
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
