package search

import (
	"math/rand"
	"sort"
	"testing"

	"ndss/internal/index"
)

func TestIntervalScanBasic(t *testing.T) {
	ivs := []Interval{{1, 3}, {2, 5}, {4, 6}}
	got := IntervalScan(ivs, 2)
	// Coverage: [1]:{0} [2,3]:{0,1} [4,5]:{1,2} [6]:{2}
	if len(got) != 2 {
		t.Fatalf("got %d overlaps, want 2: %+v", len(got), got)
	}
	if got[0].Seg != (Interval{2, 3}) || got[1].Seg != (Interval{4, 5}) {
		t.Fatalf("segments: %+v", got)
	}
	if len(got[0].Members) != 2 || len(got[1].Members) != 2 {
		t.Fatalf("member counts: %+v", got)
	}
}

func TestIntervalScanAlphaOne(t *testing.T) {
	ivs := []Interval{{5, 7}}
	got := IntervalScan(ivs, 1)
	if len(got) != 1 || got[0].Seg != (Interval{5, 7}) {
		t.Fatalf("got %+v", got)
	}
	// alpha below 1 behaves like 1.
	got = IntervalScan(ivs, 0)
	if len(got) != 1 {
		t.Fatalf("alpha=0: got %+v", got)
	}
}

func TestIntervalScanNoQualifyingSubset(t *testing.T) {
	ivs := []Interval{{1, 2}, {5, 6}}
	if got := IntervalScan(ivs, 2); got != nil {
		t.Fatalf("disjoint intervals reported overlap: %+v", got)
	}
	if got := IntervalScan(nil, 1); got != nil {
		t.Fatalf("empty input: %+v", got)
	}
	if got := IntervalScan(ivs, 3); got != nil {
		t.Fatalf("alpha > n: %+v", got)
	}
}

func TestIntervalScanIdenticalIntervals(t *testing.T) {
	ivs := []Interval{{3, 8}, {3, 8}, {3, 8}}
	got := IntervalScan(ivs, 3)
	if len(got) != 1 || got[0].Seg != (Interval{3, 8}) || len(got[0].Members) != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestIntervalScanEmptyIntervalsIgnored(t *testing.T) {
	ivs := []Interval{{5, 4}, {1, 3}} // first is empty
	got := IntervalScan(ivs, 1)
	if len(got) != 1 || got[0].Seg != (Interval{1, 3}) {
		t.Fatalf("got %+v", got)
	}
}

// TestIntervalScanMatchesOracle: for every integer position, the
// reported covering set must equal the true covering set whenever it has
// >= alpha members, and positions in no reported segment must be covered
// by fewer than alpha intervals.
func TestIntervalScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := int32(rng.Intn(30))
			ivs[i] = Interval{lo, lo + int32(rng.Intn(10))}
		}
		alpha := 1 + rng.Intn(4)
		got := IntervalScan(ivs, alpha)

		// Map position -> reported member set.
		reported := map[int32][]int32{}
		for _, ov := range got {
			for p := ov.Seg.Lo; p <= ov.Seg.Hi; p++ {
				if _, dup := reported[p]; dup {
					t.Fatalf("trial %d: position %d in two segments", trial, p)
				}
				reported[p] = ov.Members
			}
		}
		for p := int32(0); p <= 45; p++ {
			var want []int32
			for i, iv := range ivs {
				if iv.Lo <= p && p <= iv.Hi {
					want = append(want, int32(i))
				}
			}
			members, ok := reported[p]
			if len(want) >= alpha {
				if !ok {
					t.Fatalf("trial %d: position %d covered by %d >= %d but not reported",
						trial, p, len(want), alpha)
				}
				a := append([]int32{}, members...)
				sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(a) != len(want) {
					t.Fatalf("trial %d pos %d: members %v, want %v", trial, p, a, want)
				}
				for i := range a {
					if a[i] != want[i] {
						t.Fatalf("trial %d pos %d: members %v, want %v", trial, p, a, want)
					}
				}
			} else if ok {
				t.Fatalf("trial %d: position %d covered by %d < %d but reported",
					trial, p, len(want), alpha)
			}
		}
	}
}

func TestCollisionCountSimple(t *testing.T) {
	// Two windows overlapping in both dimensions.
	ws := []index.Posting{
		{TextID: 0, L: 0, C: 5, R: 10},
		{TextID: 0, L: 3, C: 7, R: 12},
	}
	rects := CollisionCount(ws, 2)
	// Sequences covered by both: i in [3,5], j in [7,10].
	if len(rects) != 1 {
		t.Fatalf("rects: %+v", rects)
	}
	r := rects[0]
	if r.ILo != 3 || r.IHi != 5 || r.JLo != 7 || r.JHi != 10 || r.Count != 2 {
		t.Fatalf("rect: %+v", r)
	}
	if !r.Contains(4, 8) || r.Contains(2, 8) || r.Contains(4, 11) {
		t.Error("Contains misbehaves")
	}
	if !r.HasSequenceOfLength(8) || r.HasSequenceOfLength(9) {
		t.Errorf("HasSequenceOfLength wrong: span %d", r.JHi-r.ILo+1)
	}
	if r.Span() != (Interval{3, 10}) {
		t.Errorf("Span = %+v", r.Span())
	}
}

func TestCollisionCountNoOverlap(t *testing.T) {
	ws := []index.Posting{
		{TextID: 0, L: 0, C: 2, R: 4},
		{TextID: 0, L: 10, C: 12, R: 14},
	}
	if rects := CollisionCount(ws, 2); rects != nil {
		t.Fatalf("disjoint windows produced rects: %+v", rects)
	}
	if rects := CollisionCount(ws, 3); rects != nil {
		t.Fatalf("alpha > m produced rects: %+v", rects)
	}
}

// TestCollisionCountMatchesOracle verifies, for random window groups,
// that every sequence's reported collision count matches brute force and
// that every qualifying sequence appears in exactly one rectangle.
func TestCollisionCountMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 150; trial++ {
		m := 1 + rng.Intn(10)
		ws := make([]index.Posting, m)
		for i := range ws {
			l := rng.Intn(20)
			c := l + rng.Intn(10)
			r := c + rng.Intn(10)
			ws[i] = index.Posting{TextID: 0, L: uint32(l), C: uint32(c), R: uint32(r)}
		}
		alpha := 1 + rng.Intn(4)
		rects := CollisionCount(ws, alpha)
		maxPos := int32(45)
		for i := int32(0); i <= maxPos; i++ {
			for j := i; j <= maxPos; j++ {
				want := collisionCountOfSequence(ws, i, j)
				var in []Rect
				for _, r := range rects {
					if r.Contains(i, j) {
						in = append(in, r)
					}
				}
				if want >= alpha {
					if len(in) != 1 {
						t.Fatalf("trial %d: seq [%d,%d] count %d in %d rects (alpha=%d)\nws=%v\nrects=%+v",
							trial, i, j, want, len(in), alpha, ws, rects)
					}
					if in[0].Count != want {
						t.Fatalf("trial %d: seq [%d,%d] rect count %d, want %d",
							trial, i, j, in[0].Count, want)
					}
				} else if len(in) != 0 {
					t.Fatalf("trial %d: seq [%d,%d] count %d < alpha %d but in rect %+v",
						trial, i, j, want, alpha, in[0])
				}
			}
		}
	}
}

// enumerateSequences expands a rectangle into the concrete (start, end)
// pairs of length >= minLen it contains, calling fn for each, and stops
// early if fn returns false: Algorithm 3's final enumeration, which
// pins what a Rect's bounds mean.
func enumerateSequences(r Rect, minLen int, fn func(i, j int32) bool) {
	for i := r.ILo; i <= r.IHi; i++ {
		jLo := r.JLo
		if need := i + int32(minLen) - 1; jLo < need {
			jLo = need
		}
		for j := jLo; j <= r.JHi; j++ {
			if !fn(i, j) {
				return
			}
		}
	}
}

func TestEnumerateSequences(t *testing.T) {
	r := Rect{ILo: 2, IHi: 4, JLo: 5, JHi: 7, Count: 3}
	var got [][2]int32
	enumerateSequences(r, 1, func(i, j int32) bool {
		got = append(got, [2]int32{i, j})
		return true
	})
	if len(got) != 9 {
		t.Fatalf("enumerated %d sequences, want 9", len(got))
	}
	// With a minimum length of 5: i=2 allows j in [6,7]; i=3 allows
	// j=7; i=4 allows none.
	got = got[:0]
	enumerateSequences(r, 5, func(i, j int32) bool {
		got = append(got, [2]int32{i, j})
		if int(j-i+1) < 5 {
			t.Fatalf("sequence [%d,%d] shorter than 5", i, j)
		}
		return true
	})
	if len(got) != 3 {
		t.Fatalf("enumerated %d sequences, want 3: %v", len(got), got)
	}
	// Early stop.
	count := 0
	enumerateSequences(r, 1, func(i, j int32) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Fatalf("early stop at %d calls", count)
	}
}
