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
	events  []uint64  // packed endpoint events, see packEvent
	active  []int32   // indices of the intervals covering the sweep position
	where   []int32   // where[idx] = position of idx in active
	members []int32   // arena the reported Members are sub-slices of
	out     []Overlap // result buffer
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
		if iv.Empty() {
			continue
		}
		sc.events = append(sc.events, packEvent(int64(iv.Lo), i, 1), packEvent(int64(iv.Hi)+1, i, 0))
	}
	slices.Sort(sc.events)

	sc.where = slices.Grow(sc.where[:0], len(intervals))
	where := sc.where[:len(intervals)]
	active, members, events := sc.active[:0], sc.members[:0], sc.events
	for e := 0; e < len(events); {
		pos := eventPos(events[e])
		for e < len(events) && eventPos(events[e]) == pos {
			idx := int32(events[e] >> 1 & (1<<eventIdxBits - 1))
			if events[e]&1 == 1 {
				where[idx] = int32(len(active))
				active = append(active, idx)
			} else {
				// An interval's start sorts before its exit, so where[idx]
				// was written by this scan: swap-remove in O(1).
				p, last := where[idx], active[len(active)-1]
				active[p], where[last] = last, p
				active = active[:len(active)-1]
			}
			e++
		}
		if len(active) >= alpha && e < len(events) {
			at := len(members)
			members = append(members, active...)
			sc.out = append(sc.out, Overlap{
				Members: members[at:len(members):len(members)],
				Seg:     Interval{Lo: int32(pos), Hi: int32(eventPos(events[e]) - 1)},
			})
		}
	}
	sc.active, sc.members = active, members
	return sc.out
}
