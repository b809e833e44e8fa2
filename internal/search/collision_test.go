package search

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ndss/internal/index"
)

// referenceCount is Algorithm 4 as the paper composes it: IntervalScan
// over the windows' left intervals [L, C], then, for every segment at
// least alpha of them cover, IntervalScan over the right intervals
// [C, R] of the covering windows. countScratch.count must return the
// same rectangles, in the same order, with the same counts.
func referenceCount(windows []index.Posting, alpha int) []Rect {
	var rects []Rect
	if len(windows) < alpha || alpha < 1 {
		return rects
	}
	var lefts []Interval
	for _, w := range windows {
		lefts = append(lefts, Interval{Lo: int32(w.L), Hi: int32(w.C)})
	}
	for _, lo := range IntervalScan(lefts, alpha) {
		var rights []Interval
		for _, m := range lo.Members {
			w := windows[m]
			rights = append(rights, Interval{Lo: int32(w.C), Hi: int32(w.R)})
		}
		for _, ro := range IntervalScan(rights, alpha) {
			rects = append(rects, Rect{
				ILo: lo.Seg.Lo, IHi: lo.Seg.Hi,
				JLo: ro.Seg.Lo, JHi: ro.Seg.Hi,
				Count: len(ro.Members),
			})
		}
	}
	return rects
}

// collisionCountOfSequence is the brute-force oracle: the number of
// windows containing the sequence [i, j].
func collisionCountOfSequence(windows []index.Posting, i, j int32) int {
	n := 0
	for _, w := range windows {
		if int32(w.L) <= i && i <= int32(w.C) && int32(w.C) <= j && j <= int32(w.R) {
			n++
		}
	}
	return n
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

// randomWindows draws n windows of one text, crowded into a range of a
// random width so that groups overlap. About one in sixteen has L > C,
// one in sixteen C > R, one in sixteen sits past 2^31 (negative as an
// int32 position) and one in sixteen ends at math.MaxInt32.
func randomWindows(rng *rand.Rand, n int) []index.Posting {
	width := 1 + rng.Intn(64)
	ws := make([]index.Posting, n)
	for i := range ws {
		l := uint32(rng.Intn(width))
		c := l + uint32(rng.Intn(width/2+1))
		r := c + uint32(rng.Intn(width+1))
		switch rng.Intn(16) {
		case 0:
			c = l - 1 - uint32(rng.Intn(3))
		case 1:
			r = c - 1 - uint32(rng.Intn(3))
		case 2:
			l, c, r = l+1<<31, c+1<<31, r+1<<31
		case 3:
			d := math.MaxInt32 - r
			l, c, r = l+d, c+d, r+d
		}
		ws[i] = index.Posting{L: l, C: c, R: r}
	}
	return ws
}

// TestCountMatchesReference holds the one-sweep kernel to Algorithm 4's
// two-scan composition on random window groups of up to 128 windows and
// every alpha from 1 to n+1: the same rectangles in the same order with
// the same counts, from one scratch reused across every case.
func TestCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var cs countScratch
	for trial := 0; trial < 300; trial++ {
		ws := randomWindows(rng, 1+rng.Intn(128))
		for alpha := 1; alpha <= len(ws)+1; alpha++ {
			want := referenceCount(ws, alpha)
			if got := append([]Rect(nil), cs.count(ws, alpha)...); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, alpha %d, windows %v:\ngot  %+v\nwant %+v", trial, alpha, ws, got, want)
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
