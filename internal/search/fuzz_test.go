package search

import (
	"math"
	"reflect"
	"testing"

	"ndss/internal/index"
)

// fuzzScan and fuzzCount are the scratches the fuzz targets reuse across
// every input of a run, so stale where/members/rects state left by one
// input is what the next input's kernels start from.
var (
	fuzzScan  scanScratch
	fuzzCount countScratch
)

// cloneOverlaps deep-copies a scan result out of its scratch.
func cloneOverlaps(ovs []Overlap) []Overlap {
	var out []Overlap
	for _, ov := range ovs {
		out = append(out, Overlap{Members: append([]int32(nil), ov.Members...), Seg: ov.Seg})
	}
	return out
}

// FuzzIntervalScan checks the sweep against a per-position oracle for
// arbitrary interval sets.
func FuzzIntervalScan(f *testing.F) {
	f.Add([]byte{1, 3, 2, 5, 4, 6}, uint8(2))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{255, 7, 255, 3, 254, 1}, uint8(1)) // Hi == math.MaxInt32: the exit event must not wrap
	f.Fuzz(func(t *testing.T, raw []byte, aRaw uint8) {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		var ivs []Interval
		for i := 0; i+1 < len(raw); i += 2 {
			lo := int32(raw[i] % 32)
			iv := Interval{Lo: lo, Hi: lo + int32(raw[i+1]%8)}
			if raw[i] >= 254 {
				// Intervals ending at the top of the int32 range.
				iv = Interval{Lo: math.MaxInt32 - int32(raw[i+1]%8), Hi: math.MaxInt32 - int32(raw[i]%2)}
			}
			ivs = append(ivs, iv)
		}
		alpha := int(aRaw%4) + 1
		got := IntervalScan(ivs, alpha)
		for pass := 0; pass < 2; pass++ {
			if reused := cloneOverlaps(fuzzScan.scan(ivs, alpha)); !reflect.DeepEqual(reused, cloneOverlaps(got)) {
				t.Fatalf("reused scratch pass %d: %+v, fresh scratch %+v", pass, reused, got)
			}
		}
		covering := func(p int64) int {
			n := 0
			for _, iv := range ivs {
				if int64(iv.Lo) <= p && p <= int64(iv.Hi) {
					n++
				}
			}
			return n
		}
		seen := map[int64]int{}
		for _, ov := range got {
			if len(ov.Members) < alpha {
				t.Fatalf("reported subset of size %d < alpha %d", len(ov.Members), alpha)
			}
			if ov.Seg.Empty() {
				t.Fatalf("empty segment reported: %+v", ov)
			}
			for p := int64(ov.Seg.Lo); p <= int64(ov.Seg.Hi); p++ {
				seen[p]++
				if seen[p] > 1 {
					t.Fatalf("position %d reported twice", p)
				}
				// Member set must be exactly the intervals covering p.
				if want := covering(p); want != len(ov.Members) {
					t.Fatalf("position %d: %d members, %d covering intervals", p, len(ov.Members), want)
				}
			}
		}
		// Completeness: every position covered by >= alpha intervals is
		// in some reported segment, at the bottom and at the top of the
		// generated range.
		for _, r := range [][2]int64{{0, 47}, {math.MaxInt32 - 8, math.MaxInt32}} {
			for p := r[0]; p <= r[1]; p++ {
				if cover := covering(p); cover >= alpha && seen[p] == 0 {
					t.Fatalf("position %d covered %d times but unreported", p, cover)
				}
			}
		}
	})
}

// FuzzCollisionCount checks rectangle counts against the brute-force
// oracle for arbitrary window groups.
func FuzzCollisionCount(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 3, 5}, uint8(2))
	f.Add([]byte{0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, aRaw uint8) {
		if len(raw) > 18 {
			raw = raw[:18]
		}
		var ws []index.Posting
		for i := 0; i+2 < len(raw); i += 3 {
			l := uint32(raw[i] % 16)
			c := l + uint32(raw[i+1]%8)
			r := c + uint32(raw[i+2]%8)
			ws = append(ws, index.Posting{TextID: 0, L: l, C: c, R: r})
		}
		alpha := int(aRaw%3) + 1
		rects := CollisionCount(ws, alpha)
		for pass := 0; pass < 2; pass++ {
			if reused := fuzzCount.count(ws, alpha); !reflect.DeepEqual(append([]Rect(nil), reused...), rects) {
				t.Fatalf("reused scratch pass %d: %+v, fresh scratch %+v", pass, reused, rects)
			}
		}
		for i := int32(0); i < 36; i++ {
			for j := i; j < 36; j++ {
				want := collisionCountOfSequence(ws, i, j)
				hits := 0
				for _, r := range rects {
					if r.Contains(i, j) {
						hits++
						if r.Count != want {
							t.Fatalf("seq [%d,%d]: rect count %d, oracle %d", i, j, r.Count, want)
						}
					}
				}
				if want >= alpha && hits != 1 {
					t.Fatalf("seq [%d,%d] with count %d in %d rects", i, j, want, hits)
				}
				if want < alpha && hits != 0 {
					t.Fatalf("seq [%d,%d] below alpha but reported", i, j)
				}
			}
		}
	})
}
