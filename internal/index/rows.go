package index

import (
	"fmt"
	"slices"
	"sort"
)

// Rows is one sketch resolved against every segment's resident
// directories: for each (function, segment) pair, the directory row of
// the function's list for the sketch's hash, or none, and for each
// segment how many of the k hashes it holds. A query resolves its
// sketch once (Index.ResolveRows), may drop segments it has no use for
// (Drop), and then sizes its lists (Len, Probeable) and reads them by
// row (Index.ReadRowsInto, whole or for one text's id range) without
// searching a directory again. A dropped segment's rows read as absent
// everywhere, so nothing reads or counts its lists.
//
// The zero value is ready to use, and ResolveRows reuses its storage,
// so a pooled Rows resolves without allocating. A Rows is tied to the
// index that resolved it.
type Rows struct {
	hashes  []uint64 // the resolved sketch, one hash per function
	refs    []rowRef // refs[si*k+fn]
	present []int    // present[si]: functions whose hash segment si holds
	steps   []int    // steps[si]: segment si's ZoneMapStep
}

// rowRef is one (segment, function) pair's resolved directory row:
// where its postings lie and which zone map, if any, indexes them. n is
// 0 when the segment holds no list for the hash (no list is empty), and
// the other fields are then meaningless.
type rowRef struct {
	off  int64  // file offset of the row's postings
	n    uint32 // postings in the row
	zone int32  // the row's zone map's position in the function's zones, or -1
}

// ResolveRows resolves sketch, one hash per function, into rows: one
// directory binary search per (segment, function) pair. It does no I/O.
func (ix *Index) ResolveRows(rows *Rows, sketch []uint64) {
	k, nseg := len(sketch), len(ix.segs)
	rows.hashes = append(rows.hashes[:0], sketch...)
	rows.refs = slices.Grow(rows.refs[:0], k*nseg)[:k*nseg]
	rows.present = slices.Grow(rows.present[:0], nseg)[:nseg]
	rows.steps = slices.Grow(rows.steps[:0], nseg)[:nseg]
	for si, seg := range ix.segs {
		refs, present := rows.refs[si*k:(si+1)*k], 0
		for fn, h := range sketch {
			if refs[fn] = seg.funcs[fn].resolve(h); refs[fn].n > 0 {
				present++
			}
		}
		rows.present[si], rows.steps[si] = present, seg.meta.ZoneMapStep
	}
}

// Segments returns the number of segments rows covers.
func (r *Rows) Segments() int { return len(r.present) }

// Present returns how many of the k hashes segment si holds a list for;
// 0 once the segment is dropped.
func (r *Rows) Present(si int) int { return r.present[si] }

// Drop removes segment si from every later use of rows: its lists read
// as absent, so reads, probes and lengths skip it.
func (r *Rows) Drop(si int) {
	k := len(r.hashes)
	clear(r.refs[si*k : (si+1)*k])
	r.present[si] = 0
}

// ref returns the resolved row of function fn in segment si.
func (r *Rows) ref(si, fn int) rowRef { return r.refs[si*len(r.hashes)+fn] }

// Len returns the posting count of function fn's list over the segments
// rows keeps, tombstoned postings included: what a full read of it
// costs.
func (r *Rows) Len(fn int) int {
	n := 0
	for si := range r.present {
		n += int(r.ref(si, fn).n)
	}
	return n
}

// Probeable reports whether one-text reads (Index.ReadRowsInto over
// [id, id]) of function fn's list stay within about one zone block
// each. Such a read touches only the segment owning the text, so the
// rule is per (list, segment) portion: at least one kept portion
// carries a zone map, and every kept portion without one is at most its
// segment's ZoneMapStep postings, which the read takes whole and
// filters. On one segment that is exactly "the list has a zone map"; on
// a segmented index a zone-mapped base keeps the list probeable beside
// small appends.
func (r *Rows) Probeable(fn int) bool {
	zoned := false
	for si, step := range r.steps {
		switch ref := r.ref(si, fn); {
		case ref.n == 0:
		case ref.zone >= 0:
			zoned = true
		case int(ref.n) > step:
			return false
		}
	}
	return zoned
}

// resolve returns the row reference of the function's list for hash h;
// its n is 0 when there is none.
func (ff *funcFile) resolve(h uint64) rowRef {
	i, ok := slices.BinarySearch(ff.hashes, h)
	if !ok {
		return rowRef{}
	}
	z, zoned := ff.zonePos(i)
	ref := rowRef{off: ff.rowOff(i, z), n: uint32(ff.count(i)), zone: -1}
	if zoned {
		ref.zone = int32(z)
	}
	return ref
}

// ReadRowsInto appends the postings of function fn's list, as resolved
// in rows, whose global text id lies in [lo, hi] to dst and returns the
// extended slice, recording the read's bytes and latency into sink
// when non-nil. It is the index's one list read: [0, math.MaxUint32]
// reads the list whole, [id, id] probes it for one text. Each segment
// rows keeps a portion of the list in, and whose id range meets
// [lo, hi], costs one read (readRange). Portions are concatenated in
// segment order with text ids remapped to the global id space (the
// result stays sorted by text id) and tombstoned postings dropped. dst
// may be nil; reusing it across reads avoids per-list allocations:
// postings are read straight into dst's tail, so a warm dst makes a
// read allocation-free. The appended postings never alias index
// storage. On error dst comes back as passed; a nil dst that gains
// nothing stays nil.
func (ix *Index) ReadRowsInto(dst []Posting, rows *Rows, fn int, lo, hi uint32, sink *IOStats) ([]Posting, error) {
	out := dst
	for si, seg := range ix.segs {
		var err error
		if out, err = ix.readRange(out, si, seg.funcs[fn], rows.ref(si, fn), lo, hi, sink); err != nil {
			return dst, fmt.Errorf("index: read list %x: %w", rows.hashes[fn], err)
		}
	}
	return nilIfNothing(dst, out), nil
}

// readRange appends the postings of ref, segment si's row of one list,
// whose global text id lies in [lo, hi]. It reads nothing when the
// segment's ids miss the range; the whole row when the range covers
// the segment or the row has no zone map; and otherwise only the zone
// window that can hold the range. It then keeps the range's run of what
// it read, drops tombstoned postings and remaps text ids to the global
// space in one pass, unless the whole row was read from a base-0
// segment without tombstones.
func (ix *Index) readRange(dst []Posting, si int, ff *funcFile, ref rowRef, lo, hi uint32, sink *IOStats) ([]Posting, error) {
	seg := ix.segs[si]
	base, n := seg.base, uint64(seg.meta.NumTexts)
	if ref.n == 0 || hi < base || uint64(lo) >= uint64(base)+n {
		return dst, nil
	}
	// The range in segment-local ids, clamped to the segment's [0, n).
	llo, lhi := max(lo, base)-base, uint32(min(uint64(hi-base), n-1))
	whole := llo == 0 && uint64(lhi) == n-1
	start, end := 0, int(ref.n)
	if !whole && ref.zone >= 0 {
		// Zone j starts at posting j*zoneStep. The first zone whose first
		// text id > lhi bounds the window on the right; it starts one
		// zone before the first zone whose first text id >= llo (the
		// range's postings may begin mid-zone).
		z := ff.zones[ref.zone]
		tab := ff.zoneTab[z.at : z.at+z.count]
		zhi := sort.Search(len(tab), func(j int) bool { return tab[j] > lhi })
		if zhi == 0 {
			// The row's very first posting already lies past the range.
			return dst, nil
		}
		zlo := sort.Search(zhi, func(j int) bool { return tab[j] >= llo })
		start = max(zlo-1, 0) * ff.zoneStep
		if zhi < len(tab) {
			end = zhi * ff.zoneStep
		}
	}
	at := len(dst)
	dst, err := readPostings(dst, ff, ref.off+int64(start)*postingSize, end-start, sink)
	if err != nil || whole && base == 0 && seg.tomb == nil {
		return dst, err
	}
	ps := dst[at:]
	if !whole { // the row is sorted by text id, so the range is one run of it
		from := sort.Search(len(ps), func(j int) bool { return ps[j].TextID >= llo })
		to := sort.Search(len(ps), func(j int) bool { return ps[j].TextID > lhi })
		ps = ps[from:to]
	}
	w := at
	for _, p := range ps {
		if seg.tomb.has(p.TextID) {
			continue
		}
		p.TextID += base
		dst[w] = p
		w++
	}
	return dst[:w], nil
}
