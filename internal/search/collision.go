package search

import "ndss/internal/index"

// Rect is one CollisionCount result: every sequence T[i..j] with
// i in [ILo, IHi] and j in [JLo, JHi] collides with the query on exactly
// Count min-hash functions (among the compact windows supplied). The
// construction guarantees IHi <= JLo, so every (i, j) pair in the
// rectangle is a valid sequence, and distinct rectangles from one call
// are disjoint in (i, j) space.
type Rect struct {
	ILo, IHi int32
	JLo, JHi int32
	Count    int
}

// Contains reports whether the sequence [i, j] lies in the rectangle.
func (r Rect) Contains(i, j int32) bool {
	return r.ILo <= i && i <= r.IHi && r.JLo <= j && j <= r.JHi
}

// HasSequenceOfLength reports whether the rectangle contains at least
// one sequence with >= t tokens.
func (r Rect) HasSequenceOfLength(t int) bool {
	return int(r.JHi-r.ILo+1) >= t
}

// Span returns the merged span of all valid (length >= t) sequences in
// the rectangle: since every sequence in a rectangle contains the core
// [IHi, JLo], they mutually overlap and their union is one contiguous
// span [ILo, JHi].
func (r Rect) Span() Interval { return Interval{Lo: r.ILo, Hi: r.JHi} }

// CollisionCount finds every maximal rectangle of sequences contained in
// at least alpha of the supplied compact windows (Algorithm 4). All
// windows must come from the same text. Each qualifying sequence (i, j)
// appears in exactly one returned rectangle, whose Count is the exact
// number of supplied windows containing it.
func CollisionCount(windows []index.Posting, alpha int) []Rect {
	var cs countScratch
	return cs.count(windows, alpha)
}

// countScratch is the reusable state of one CollisionCount: the outer
// scan's overlaps stay live while the inner scan runs once per overlap,
// so each has its own sweep state. A count's result is valid until the
// next count on the same scratch.
type countScratch struct {
	outer, inner  scanScratch
	lefts, rights []Interval
	rects         []Rect
}

func (cs *countScratch) count(windows []index.Posting, alpha int) []Rect {
	cs.rects = cs.rects[:0]
	if len(windows) < alpha || alpha < 1 {
		return cs.rects
	}
	// Left intervals [L, C] of every window.
	cs.lefts = cs.lefts[:0]
	for _, w := range windows {
		cs.lefts = append(cs.lefts, Interval{Lo: int32(w.L), Hi: int32(w.C)})
	}
	for _, lo := range cs.outer.scan(cs.lefts, alpha) {
		// Right intervals [C, R] of the windows whose left intervals
		// cover this segment.
		cs.rights = cs.rights[:0]
		for _, m := range lo.Members {
			w := windows[m]
			cs.rights = append(cs.rights, Interval{Lo: int32(w.C), Hi: int32(w.R)})
		}
		for _, ro := range cs.inner.scan(cs.rights, alpha) {
			cs.rects = append(cs.rects, Rect{
				ILo: lo.Seg.Lo, IHi: lo.Seg.Hi,
				JLo: ro.Seg.Lo, JHi: ro.Seg.Hi,
				Count: len(ro.Members),
			})
		}
	}
	return cs.rects
}

// collisionCountOfSequence is a reference oracle: the number of windows
// containing the sequence [i, j]. Exported to tests via export_test.go.
func collisionCountOfSequence(windows []index.Posting, i, j int32) int {
	n := 0
	for _, w := range windows {
		if int32(w.L) <= i && i <= int32(w.C) && int32(w.C) <= j && j <= int32(w.R) {
			n++
		}
	}
	return n
}
