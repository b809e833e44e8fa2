package search

import (
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ndss/internal/corpus"
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

// FuzzCollisionCount checks the kernel against Algorithm 4's two-scan
// composition (referenceCount) and the brute-force oracle for up to 48
// windows and any alpha from 1 to the window count. Each window takes
// four bytes: L's low byte, C-L and R-C as small signed steps (so L > C
// and C > R occur), and a byte choosing where the group sits: near 0,
// across 2^31, past 2^31 (negative as an int32 position) or high below
// it. testdata/fuzz/FuzzCollisionCount holds seeds of each shape.
func FuzzCollisionCount(f *testing.F) {
	f.Add([]byte{0, 2, 4, 0, 1, 3, 5, 0}, uint8(1))
	f.Add([]byte{0, 0, 0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, aRaw uint8) {
		if len(raw) > 48*4 {
			raw = raw[:48*4]
		}
		var ws []index.Posting
		for i := 0; i+3 < len(raw); i += 4 {
			var base uint32
			switch h := uint32(raw[i+3]); h % 4 {
			case 1:
				base = 1<<31 - 48
			case 2:
				base = 1<<31 + h<<20
			case 3:
				base = h << 22
			}
			l := base + uint32(raw[i]%32)
			c := l + uint32(int32(raw[i+1]%24)-3)
			r := c + uint32(int32(raw[i+2]%40)-3)
			ws = append(ws, index.Posting{TextID: 0, L: l, C: c, R: r})
		}
		alpha := int(aRaw)%max(len(ws), 1) + 1
		rects := CollisionCount(ws, alpha)
		if want := referenceCount(ws, alpha); !reflect.DeepEqual(rects, want) {
			t.Fatalf("alpha %d, windows %v:\ngot  %+v\nwant %+v", alpha, ws, rects, want)
		}
		for pass := 0; pass < 2; pass++ {
			if reused := fuzzCount.count(ws, alpha); !reflect.DeepEqual(append([]Rect(nil), reused...), rects) {
				t.Fatalf("reused scratch pass %d: %+v, fresh scratch %+v", pass, reused, rects)
			}
		}
		for i := int32(-4); i < 64; i++ {
			for j := i; j < 64; j++ {
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

// fuzzSegCorpus is the corpus FuzzSegmentedSearch carves segments from:
// short texts over a small vocabulary, so lists overlap and queries
// match.
var fuzzSegCorpus = smallDupCorpus(24, 6, 30, 12, 29)

// FuzzSegmentedSearch builds a segmented index from the input — a base
// and appends of fuzzer-chosen sizes, then fuzzer-chosen deletions — and
// checks Search, with and without the prefix filter, against the
// Definition 2 brute force over the live texts, for a fuzzer-chosen
// theta and a query cut from one text plus fuzzer-chosen tokens (ids
// past the vocabulary included).
func FuzzSegmentedSearch(f *testing.F) {
	f.Add([]byte{10, 2, 1, 1, 3}, []byte{3, 11}, uint8(7), uint8(0), uint8(2), uint8(12), []byte{})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, []byte{}, uint8(9), uint8(5), uint8(0), uint8(30), []byte{20, 21})
	f.Add([]byte{23}, []byte{0, 1, 2}, uint8(4), uint8(3), uint8(1), uint8(6), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, sizes, deleted []byte, thetaRaw, qText, qStart, qLen uint8, extra []byte) {
		c := fuzzSegCorpus
		var parts []*corpus.Corpus
		for next := 0; next < c.NumTexts(); {
			n := c.NumTexts() - next
			if len(parts) < len(sizes) && len(parts) < 9 {
				n = min(n, int(sizes[len(parts)]%8)+1)
			}
			part := corpus.New(nil)
			for ; part.NumTexts() < n; next++ {
				part.Append(c.Text(uint32(next)))
			}
			parts = append(parts, part)
		}
		dir := filepath.Join(t.TempDir(), "ix")
		if _, err := index.Build(parts[0], dir, index.BuildOptions{K: 8, Seed: 41, T: 4, ZoneMapStep: 2, LongListCutoff: 4}); err != nil {
			t.Fatal(err)
		}
		for _, p := range parts[1:] {
			if _, err := index.Append(dir, p); err != nil {
				t.Fatal(err)
			}
		}
		dead := map[uint32]bool{}
		var ids []uint32
		for _, b := range deleted[:min(len(deleted), 6)] {
			if id := uint32(b) % uint32(c.NumTexts()); !dead[id] {
				dead[id] = true
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			if err := index.Delete(dir, ids); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := index.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()

		text := c.Text(uint32(qText) % uint32(c.NumTexts()))
		start := int(qStart) % len(text)
		q := slices.Clone(text[start:min(len(text), start+int(qLen%24)+1)])
		for _, b := range extra[:min(len(extra), 8)] {
			q = append(q, uint32(b%16))
		}
		theta := float64(thetaRaw%10+1) / 10
		want := oracleSpans(c, ix.Family(), q, theta, ix.Meta().T)
		for id := range dead {
			delete(want, id)
		}
		s := New(ix, nil)
		for _, prefix := range []bool{false, true} {
			ms, _, err := s.Search(q, Options{Theta: theta, PrefixFilter: prefix})
			if err != nil {
				t.Fatal(err)
			}
			if got := matchesToSpans(ms); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d segments, deleted %v, theta %v, prefix filter %v, query %v:\ngot  %v\nwant %v",
					ix.SegmentCount(), ids, theta, prefix, q, got, want)
			}
		}
	})
}
