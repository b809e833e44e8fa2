package window

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzGenerateLinear checks the O(n) generator, for arbitrary hash
// arrays and thresholds: (1) on reused scratch it emits, in strictly
// ascending C, the same windows as the segment-tree recursion, (2) every
// window is maximal and annotated with the true range minimum, and (3)
// the windows partition all sequences of length >= t.
func FuzzGenerateLinear(f *testing.F) {
	var fuzzScratch Scratch // one per fuzz worker process; targets run one at a time
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{5, 5, 5, 5}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{9, 1, 8, 1, 7, 1}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, tRaw uint8) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		tt := int(tRaw%16) + 1
		vals := make([]uint64, len(raw))
		for i, b := range raw {
			vals[i] = uint64(b % 16) // dense ties
		}
		ws := checkScratchGenerate(t, &fuzzScratch, vals, tt)
		for _, w := range ws {
			for p := w.L; p <= w.R; p++ {
				if vals[p] < vals[w.C] {
					t.Fatalf("window %v not a range minimum", w)
				}
			}
			if w.L > 0 && vals[w.L-1] > vals[w.C] {
				t.Fatalf("window %v extendable left", w)
			}
			if int(w.R) < len(vals)-1 && vals[w.R+1] >= vals[w.C] {
				t.Fatalf("window %v extendable right", w)
			}
		}
		// Partition property over all sequences of length >= tt.
		n := len(vals)
		for i := 0; i < n; i++ {
			for j := i + tt - 1; j < n; j++ {
				covered := 0
				for _, w := range ws {
					if w.Contains(int32(i), int32(j)) {
						covered++
					}
				}
				if covered != 1 {
					t.Fatalf("sequence [%d, %d] covered %d times", i, j, covered)
				}
			}
		}
	})
}

// FuzzCompactWindows cross-checks the O(n) candidate-first generator
// against Algorithm 2's divide-and-conquer recursion over the segment
// tree on wide-range hash values (8 bytes per value, so ties are rare
// and the Cartesian tree is deep and skewed). The two implementations
// must emit the same window multiset for every input.
func FuzzCompactWindows(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(2))
	f.Add(bytes.Repeat([]byte{0xab}, 64), uint8(3)) // all-equal values
	f.Add([]byte("ascending hash values make a right spine"), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, tRaw uint8) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		tt := int(tRaw%32) + 1
		n := len(raw) / 8
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint64(raw[i*8:])
		}
		ws := stackGenerate(vals, tt)
		ref := GenerateSegmentTree(vals, tt, nil)
		if len(ws) != len(ref) {
			t.Fatalf("stack generator emitted %d windows, segment tree %d", len(ws), len(ref))
		}
		want := map[Window]int{}
		for _, w := range ref {
			want[w]++
		}
		for _, w := range ws {
			want[w]--
		}
		for w, c := range want {
			if c != 0 {
				t.Fatalf("window %v: segment tree count minus stack count = %d", w, c)
			}
		}
		// Sanity bound: a compact window exists iff the text is long
		// enough, and there are at most n of them.
		if (n >= tt) != (len(ws) > 0) || len(ws) > n {
			t.Fatalf("%d windows for n=%d t=%d", len(ws), n, tt)
		}
	})
}
