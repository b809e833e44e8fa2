package search

import (
	"math/rand"
	"sort"
	"testing"
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
