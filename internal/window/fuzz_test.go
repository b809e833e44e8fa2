package window

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ndss/internal/rmq"
)

// FuzzGenerateLinear checks, for arbitrary hash arrays and thresholds:
// (1) the stack generator and the RMQ recursion agree, (2) every window
// is maximal and annotated with the true range minimum, (3) the windows
// partition all sequences of length >= t, and (4) the generator on
// reused scratch emits the same windows in strictly ascending C.
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
		checkScratchGenerate(t, &fuzzScratch, vals, tt)
		ws := GenerateLinear(vals, tt, nil)
		ref := Generate(vals, tt, func(x []uint64) rmq.RMQ { return rmq.NewSparse(x) }, nil)
		if len(ws) != len(ref) {
			t.Fatalf("generators disagree: %d vs %d windows", len(ws), len(ref))
		}
		refSet := map[Window]bool{}
		for _, w := range ref {
			refSet[w] = true
		}
		for _, w := range ws {
			if !refSet[w] {
				t.Fatalf("window %v missing from RMQ output", w)
			}
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

// FuzzCompactWindows cross-checks Algorithm 2's divide-and-conquer
// recursion against the O(n) monotonic-stack generator on wide-range
// hash values (8 bytes per value, so ties are rare and the Cartesian
// tree is deep and skewed). The two implementations must emit the same
// window multiset for every input, independent of the RMQ backing the
// recursion.
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
		ref := GenerateLinear(vals, tt, nil)
		refSet := map[Window]int{}
		for _, w := range ref {
			refSet[w]++
		}
		for name, ctor := range map[string]func([]uint64) rmq.RMQ{
			"linear":  func(x []uint64) rmq.RMQ { return rmq.NewLinear(x) },
			"segtree": func(x []uint64) rmq.RMQ { return rmq.NewSegmentTree(x) },
		} {
			ws := Generate(vals, tt, ctor, nil)
			if len(ws) != len(ref) {
				t.Fatalf("%s: %d windows, stack generator emitted %d", name, len(ws), len(ref))
			}
			seen := map[Window]int{}
			for _, w := range ws {
				seen[w]++
			}
			for w, c := range refSet {
				if seen[w] != c {
					t.Fatalf("%s: window %v count %d, want %d", name, w, seen[w], c)
				}
			}
		}
		// Sanity bound: a compact window exists iff the text is long
		// enough, and there are at most n of them.
		if (n >= tt) != (len(ref) > 0) || len(ref) > n {
			t.Fatalf("%d windows for n=%d t=%d", len(ref), n, tt)
		}
	})
}
