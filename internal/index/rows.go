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
// (Drop), and then sizes, reads and probes its lists by row (Len,
// Probeable, Index.ReadRowsInto, Index.ReadRowsForTextInto) without
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

// Probeable reports whether per-text probes (Index.ReadRowsForTextInto)
// into function fn's list stay within about one zone block each. A
// probe touches only the segment owning the text, so the rule is per
// (list, segment) portion: at least one kept portion carries a zone
// map, and every kept portion without one is at most its segment's
// ZoneMapStep postings, which a probe reads whole and filters. On one
// segment that is exactly "the list has a zone map"; on a segmented
// index a zone-mapped base keeps the list probeable beside small
// appends.
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

// ReadRowsInto appends function fn's list, as resolved in rows, to dst
// and returns the extended slice, recording the read's bytes and
// latency into sink (when non-nil) in addition to the index-wide
// cumulative counters: one read per segment rows keeps a portion of the
// list in. Portions are concatenated in segment order with text ids
// remapped to the global id space (the result stays sorted by text id)
// and tombstoned postings dropped. dst may be nil; reusing it across
// reads avoids per-list allocations: postings are read straight into
// dst's tail, so a warm dst makes a read allocation-free. The appended
// postings never alias index storage. On error dst comes back as
// passed; a nil dst that gains nothing stays nil.
func (ix *Index) ReadRowsInto(dst []Posting, rows *Rows, fn int, sink *IOStats) ([]Posting, error) {
	out := dst
	for si, seg := range ix.segs {
		ref := rows.ref(si, fn)
		if ref.n == 0 {
			continue
		}
		var err error
		if out, err = ix.readRow(out, si, seg, seg.funcs[fn], ref, sink); err != nil {
			return dst, fmt.Errorf("index: read list %x: %w", rows.hashes[fn], err)
		}
	}
	return nilIfNothing(dst, out), nil
}

// ReadRowsForTextInto appends only the postings of (global) textID
// within function fn's list, as resolved in rows, to dst, recording I/O
// into sink, with the same reuse contract as ReadRowsInto. Only the
// segment owning the id is touched: a portion with a zone map is probed
// through its resident table, one read proportional to the zone step
// rather than the list length; a portion without one is read fully and
// filtered; an absent or dropped portion, or a tombstoned text, reads
// nothing.
func (ix *Index) ReadRowsForTextInto(dst []Posting, rows *Rows, fn int, textID uint32, sink *IOStats) ([]Posting, error) {
	si, seg := ix.owningSegment(textID)
	if seg == nil {
		return dst, nil
	}
	ref, local := rows.ref(si, fn), textID-seg.base
	if ref.n == 0 || seg.tomb.has(local) {
		return dst, nil
	}
	ff := seg.funcs[fn]
	startOrd, endOrd := 0, int(ref.n)
	if ref.zone >= 0 {
		// The first zone whose first text id > local bounds the probe on
		// the right; it starts one zone before the first zone whose
		// first text id >= local (the text's postings may begin
		// mid-zone). Zone j starts at posting j*zoneStep.
		z := ff.zones[ref.zone]
		tab := ff.zoneTab[z.at : z.at+z.count]
		hi := sort.Search(len(tab), func(j int) bool { return tab[j] > local })
		if hi == 0 {
			// The list's very first posting already has a larger text id.
			return dst, nil
		}
		lo := sort.Search(hi, func(j int) bool { return tab[j] >= local })
		if lo > 0 {
			lo--
		}
		startOrd = lo * ff.zoneStep
		if hi < len(tab) {
			endOrd = hi * ff.zoneStep
		}
	}
	out, err := ix.readPostings(dst, ff, si, ref.off+int64(startOrd)*postingSize, endOrd-startOrd, sink)
	if err != nil {
		return dst, fmt.Errorf("index: probe list %x: %w", rows.hashes[fn], err)
	}
	return nilIfNothing(dst, keepText(out, len(dst), local, seg.base)), nil
}
