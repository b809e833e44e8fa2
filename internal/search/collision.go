package search

import (
	"slices"

	"ndss/internal/index"
)

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

// countScratch is the reusable state of one CollisionCount. A count's
// result is valid until the next count on the same scratch.
//
// Algorithm 4 runs IntervalScan over the windows' left intervals [L, C]
// and, for every segment at least alpha of them cover, IntervalScan
// again over the right intervals [C, R] of the covering windows. count
// does both in one sweep: it sweeps the left events once, and while at
// least alpha windows are active it keeps the active windows' right
// events in one sorted slice, built with one sort when the active count
// reaches alpha and updated by binary-search insert and delete on every
// later left event. A reported segment then walks that slice with a
// running count; it reports the positions and counts the inner scan
// would, since those depend only on the multiset of right events.
type countScratch struct {
	lefts  []uint64 // packed left events of the non-empty [L, C], sorted
	set    sweepSet // windows whose left interval covers the sweep position
	rights []uint64 // sorted packed right events of the active windows
	rects  []Rect
}

func (cs *countScratch) count(windows []index.Posting, alpha int) []Rect {
	cs.rects = cs.rects[:0]
	if len(windows) < alpha || alpha < 1 {
		return cs.rects
	}
	if len(windows) >= 1<<eventIdxBits {
		panic("search: CollisionCount over more than 2^30 windows")
	}
	lefts := cs.lefts[:0]
	for i, w := range windows {
		lefts = appendEvents(lefts, int32(w.L), int32(w.C), i)
	}
	slices.Sort(lefts)

	cs.set.reset(len(windows))
	rights := cs.rights[:0]
	// sorted reports whether rights holds the active windows' right
	// events; it is dropped whenever fewer than alpha windows are active.
	sorted := false
	for e := 0; e < len(lefts); {
		pos := eventPos(lefts[e])
		for ; e < len(lefts) && eventPos(lefts[e]) == pos; e++ {
			idx, start := cs.set.apply(lefts[e])
			c, r := int32(windows[idx].C), int32(windows[idx].R)
			if !sorted || c > r {
				continue
			}
			in, out := packEvent(int64(c), int(idx), 1), packEvent(int64(r)+1, int(idx), 0)
			if start {
				rights = insertEvent(insertEvent(rights, in), out)
			} else {
				rights = deleteEvent(deleteEvent(rights, in), out)
			}
		}
		// Every window's exit is in lefts, so the set is empty after the
		// last event and e < len(lefts) below.
		active := cs.set.active
		if len(active) < alpha {
			sorted = false
			continue
		}
		if !sorted {
			rights = rights[:0]
			for _, idx := range active {
				rights = appendEvents(rights, int32(windows[idx].C), int32(windows[idx].R), int(idx))
			}
			slices.Sort(rights)
			sorted = true
		}
		iLo, iHi := int32(pos), int32(eventPos(lefts[e])-1)
		// Right events sum to zero, so n >= alpha only before the last.
		n := 0
		for r := 0; r < len(rights); {
			jLo := eventPos(rights[r])
			for ; r < len(rights) && eventPos(rights[r]) == jLo; r++ {
				n += int(rights[r]&1)*2 - 1
			}
			if n >= alpha {
				cs.rects = append(cs.rects, Rect{
					ILo: iLo, IHi: iHi,
					JLo: int32(jLo), JHi: int32(eventPos(rights[r]) - 1),
					Count: n,
				})
			}
		}
	}
	cs.lefts, cs.rights = lefts, rights
	return cs.rects
}

// insertEvent inserts ev into the sorted events.
func insertEvent(events []uint64, ev uint64) []uint64 {
	i, _ := slices.BinarySearch(events, ev)
	events = append(events, 0)
	copy(events[i+1:], events[i:])
	events[i] = ev
	return events
}

// deleteEvent removes ev, which is present, from the sorted events.
func deleteEvent(events []uint64, ev uint64) []uint64 {
	i, _ := slices.BinarySearch(events, ev)
	copy(events[i:], events[i+1:])
	return events[:len(events)-1]
}
