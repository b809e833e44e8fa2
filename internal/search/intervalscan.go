// Package search implements the paper's query processing (§3.5):
// IntervalScan (Algorithm 5), CollisionCount (Algorithm 4) and
// NearDuplicateSearch with prefix filtering and zone-map probes
// (Algorithm 3), plus result merging and optional exact-Jaccard
// verification.
package search

import "slices"

// Interval is a closed integer interval [Lo, Hi].
type Interval struct {
	Lo, Hi int32
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Overlap is one result of IntervalScan: the set of input intervals
// (identified by their indices) that all cover the segment Seg, which is
// a maximal segment on which the covering set stays constant.
type Overlap struct {
	Members []int32
	Seg     Interval
}

// IntervalScan sweeps a collection of intervals and reports, for every
// maximal segment covered by at least alpha intervals, the covering
// subset and the segment (Algorithm 5). Each position is part of at most
// one reported segment, and the covering set reported for it is exactly
// the set of intervals containing it.
func IntervalScan(intervals []Interval, alpha int) []Overlap {
	var sc scanScratch
	return sc.scan(intervals, alpha)
}

// scanScratch is the reusable state of one interval sweep. A scan's
// result (and the Members of every Overlap in it) is valid until the
// next scan on the same scratch.
type scanScratch struct {
	events  []uint64 // packed endpoint events, see packEvent
	set     sweepSet
	members []int32   // arena the reported Members are sub-slices of
	out     []Overlap // result buffer
}

// sweepSet is the set of intervals covering a sweep position, kept so
// that a start or an exit costs O(1).
type sweepSet struct {
	active []int32 // indices of the intervals covering the sweep position
	where  []int32 // where[idx] = position of idx in active
}

// reset empties the set for a sweep over n intervals.
func (s *sweepSet) reset(n int) {
	s.active = s.active[:0]
	s.where = slices.Grow(s.where[:0], n)[:n]
}

// apply applies one packed endpoint event and returns the index of its
// interval and whether the event is its start.
func (s *sweepSet) apply(ev uint64) (idx int32, start bool) {
	idx = int32(ev >> 1 & (1<<eventIdxBits - 1))
	if ev&1 == 1 {
		s.where[idx] = int32(len(s.active))
		s.active = append(s.active, idx)
		return idx, true
	}
	// An interval's start sorts before its exit, so where[idx] was
	// written by this sweep: swap-remove in O(1).
	p, last := s.where[idx], s.active[len(s.active)-1]
	s.active[p], s.where[last] = last, p
	s.active = s.active[:len(s.active)-1]
	return idx, false
}

// An endpoint event packs (position, interval index, start flag) into
// one uint64 so the sweep order is a plain integer sort: 33 bits of
// position biased by 2^31 (exits sit at Hi+1, which reaches 2^31 for
// Hi == math.MaxInt32), 30 bits of index, 1 start bit.
const (
	eventIdxBits = 30
	eventPosBias = 1 << 31
)

func packEvent(pos int64, idx int, start uint64) uint64 {
	return uint64(pos+eventPosBias)<<(eventIdxBits+1) | uint64(idx)<<1 | start
}

func eventPos(e uint64) int64 { return int64(e>>(eventIdxBits+1)) - eventPosBias }

// appendEvents appends the start and exit events of interval idx, [lo, hi],
// and nothing when it is empty.
func appendEvents(events []uint64, lo, hi int32, idx int) []uint64 {
	if lo > hi {
		return events
	}
	return append(events, packEvent(int64(lo), idx, 1), packEvent(int64(hi)+1, idx, 0))
}

func (sc *scanScratch) scan(intervals []Interval, alpha int) []Overlap {
	if alpha < 1 {
		alpha = 1
	}
	sc.out = sc.out[:0]
	if len(intervals) < alpha {
		return sc.out
	}
	if len(intervals) >= 1<<eventIdxBits {
		panic("search: IntervalScan over more than 2^30 intervals")
	}
	// Endpoint events: interval [lo, hi] starts at lo and exits at hi+1.
	sc.events = sc.events[:0]
	for i, iv := range intervals {
		sc.events = appendEvents(sc.events, iv.Lo, iv.Hi, i)
	}
	slices.Sort(sc.events)

	sc.set.reset(len(intervals))
	members, events := sc.members[:0], sc.events
	for e := 0; e < len(events); {
		pos := eventPos(events[e])
		for ; e < len(events) && eventPos(events[e]) == pos; e++ {
			sc.set.apply(events[e])
		}
		if active := sc.set.active; len(active) >= alpha && e < len(events) {
			at := len(members)
			members = append(members, active...)
			sc.out = append(sc.out, Overlap{
				Members: members[at:len(members):len(members)],
				Seg:     Interval{Lo: int32(pos), Hi: int32(eventPos(events[e]) - 1)},
			})
		}
	}
	sc.members = members
	return sc.out
}
