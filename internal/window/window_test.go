package window

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ndss/internal/hash"
)

// stackGenerate runs Scratch.Generate on fresh scratch.
func stackGenerate(vals []uint64, t int) []Window {
	var s Scratch
	return s.Generate(vals, t, nil)
}

// generators lists both window generators; they must produce identical
// window sets.
var generators = []struct {
	name string
	gen  func(vals []uint64, t int) []Window
}{
	{"stack", stackGenerate},
	{"segment tree", func(v []uint64, t int) []Window { return GenerateSegmentTree(v, t, nil) }},
}

func sortWindows(ws []Window) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].C != ws[j].C {
			return ws[i].C < ws[j].C
		}
		if ws[i].L != ws[j].L {
			return ws[i].L < ws[j].L
		}
		return ws[i].R < ws[j].R
	})
}

func windowsEqual(a, b []Window) bool {
	if len(a) != len(b) {
		return false
	}
	sortWindows(a)
	sortWindows(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyAndShortInputs(t *testing.T) {
	for _, g := range generators {
		if ws := g.gen(nil, 5); len(ws) != 0 {
			t.Errorf("%s: empty input produced %d windows", g.name, len(ws))
		}
		if ws := g.gen([]uint64{1, 2, 3}, 5); len(ws) != 0 {
			t.Errorf("%s: too-short input produced %d windows", g.name, len(ws))
		}
	}
}

func TestSingleToken(t *testing.T) {
	for _, g := range generators {
		ws := g.gen([]uint64{7}, 1)
		if len(ws) != 1 || ws[0] != (Window{0, 0, 0}) {
			t.Errorf("%s: single token t=1 -> %v, want [(0,0,0)]", g.name, ws)
		}
	}
}

func TestThresholdOneEmitsAllPositions(t *testing.T) {
	vals := []uint64{5, 3, 8, 1, 9, 2, 7}
	for _, g := range generators {
		ws := g.gen(vals, 1)
		if len(ws) != len(vals) {
			t.Errorf("%s: t=1 emitted %d windows, want %d", g.name, len(ws), len(vals))
		}
	}
}

func TestKnownExample(t *testing.T) {
	// vals: min at index 3 (value 1), then sub-arrays [0..2] and [4..6].
	vals := []uint64{5, 3, 8, 1, 9, 2, 7}
	// t=3: root window (0,3,6); left [0,2] min at 1 -> (0,1,2) width 3;
	// right [4,6] min at 5 -> (4,5,6) width 3. Their children are too
	// narrow.
	want := []Window{{0, 3, 6}, {0, 1, 2}, {4, 5, 6}}
	for _, g := range generators {
		got := g.gen(vals, 3)
		if !windowsEqual(got, append([]Window{}, want...)) {
			t.Errorf("%s: got %v, want %v", g.name, got, want)
		}
	}
}

func TestTieBreaksLeftmost(t *testing.T) {
	// Duplicate minimum values: the leftmost occurrence must divide.
	vals := []uint64{4, 1, 3, 1, 5}
	for _, g := range generators {
		ws := g.gen(vals, 5)
		if len(ws) != 1 {
			t.Fatalf("%s: got %d windows, want 1", g.name, len(ws))
		}
		if ws[0] != (Window{0, 1, 4}) {
			t.Errorf("%s: got %v, want (0,1,4)", g.name, ws[0])
		}
	}
}

func TestAllEqualValues(t *testing.T) {
	// All tokens share the same hash: the tree is a right spine.
	vals := []uint64{6, 6, 6, 6, 6, 6}
	for _, g := range generators {
		ws := g.gen(vals, 3)
		// Windows: (0,0,5),(1,1,5),(2,2,5),(3,3,5) have width >= 3.
		want := []Window{{0, 0, 5}, {1, 1, 5}, {2, 2, 5}, {3, 3, 5}}
		if !windowsEqual(ws, append([]Window{}, want...)) {
			t.Errorf("%s: got %v, want %v", g.name, ws, want)
		}
	}
}

func TestGeneratorsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		tt := 1 + rng.Intn(20)
		vals := make([]uint64, n)
		domain := uint64(1 + rng.Intn(40)) // frequent ties
		for i := range vals {
			vals[i] = rng.Uint64() % domain
		}
		ref := generators[0].gen(vals, tt)
		for _, g := range generators[1:] {
			got := g.gen(vals, tt)
			if !windowsEqual(append([]Window{}, ref...), got) {
				t.Fatalf("trial %d t=%d: %s disagrees with %s\nvals=%v\nref=%v\ngot=%v",
					trial, tt, g.name, generators[0].name, vals, ref, got)
			}
		}
	}
}

// argminScan returns the leftmost minimum of vals[l..r] by linear scan.
func argminScan(vals []uint64, l, r int) int32 {
	best := l
	for i := l + 1; i <= r; i++ {
		if vals[i] < vals[best] {
			best = i
		}
	}
	return int32(best)
}

// checkSegmentTreeAllRanges holds the reference's range-minimum structure
// to brute force: every range of vals must answer the leftmost minimum.
func checkSegmentTreeAllRanges(t *testing.T, vals []uint64) {
	t.Helper()
	n := len(vals)
	st := newSegmentTree(vals)
	for l := 0; l < n; l++ {
		for r := l; r < n; r++ {
			if got, want := st.query(1, 0, int32(n-1), int32(l), int32(r)), argminScan(vals, l, r); got != want {
				t.Fatalf("vals=%v [%d,%d]: segment tree %d, scan %d", vals, l, r, got, want)
			}
		}
	}
}

func TestSegmentTreeSingleElement(t *testing.T) {
	st := newSegmentTree([]uint64{42})
	if got := st.query(1, 0, 0, 0, 0); got != 0 {
		t.Errorf("[0,0] = %d, want 0", got)
	}
}

// TestSegmentTreeAllRangesSmall checks every range of fixed arrays,
// including arrays with many ties.
func TestSegmentTreeAllRangesSmall(t *testing.T) {
	const top = math.MaxUint64
	arrays := [][]uint64{
		{5},
		{2, 1},
		{1, 2},
		{3, 3, 3, 3},
		{9, 1, 8, 1, 7, 1, 6},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{8, 7, 6, 5, 4, 3, 2, 1},
		{5, 5, 1, 5, 5, 1, 5, 5, 1},
		{0, top, 0, top},
	}
	for _, vals := range arrays {
		checkSegmentTreeAllRanges(t, vals)
	}
}

// TestSegmentTreeAllRangesRandom checks every range of random arrays drawn
// from a small value domain, to force many ties.
func TestSegmentTreeAllRangesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		vals := make([]uint64, 1+rng.Intn(200))
		domain := uint64(1 + rng.Intn(10))
		for j := range vals {
			vals[j] = rng.Uint64() % domain
		}
		checkSegmentTreeAllRanges(t, vals)
	}
}

// TestSegmentTreeLargeRandomSpotChecks checks random ranges of a long
// random array.
func TestSegmentTreeLargeRandomSpotChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	long := make([]uint64, 50000)
	for i := range long {
		long[i] = rng.Uint64()
	}
	st := newSegmentTree(long)
	for q := 0; q < 5000; q++ {
		l := rng.Intn(len(long))
		r := l + rng.Intn(len(long)-l)
		if got, want := st.query(1, 0, int32(len(long)-1), int32(l), int32(r)), argminScan(long, l, r); got != want {
			t.Fatalf("[%d,%d]: segment tree %d, scan %d", l, r, got, want)
		}
	}
}

// checkScratchGenerate runs Scratch.Generate on a Scratch that has
// just served a longer, different input, checks the output against the
// segment-tree recursion as a set, for strictly ascending C, and for
// nothing left over from the earlier call, and returns it.
func checkScratchGenerate(t *testing.T, s *Scratch, vals []uint64, tt int) []Window {
	t.Helper()
	longer := make([]uint64, 2*len(vals)+3)
	for i := range longer {
		longer[i] = uint64(len(longer) - i) // descending: every bound differs from vals'
	}
	s.Generate(longer, 1, nil)
	got := s.Generate(vals, tt, nil)
	for i := 1; i < len(got); i++ {
		if got[i-1].C >= got[i].C {
			t.Fatalf("t=%d vals=%v: C not strictly ascending: %v", tt, vals, got)
		}
	}
	ref := GenerateSegmentTree(vals, tt, nil)
	if !windowsEqual(append([]Window{}, got...), ref) {
		t.Fatalf("t=%d vals=%v: Generate %v, segment tree %v", tt, vals, got, ref)
	}
	return got
}

// TestScratchGenerateMatchesRMQ checks Scratch.Generate against the
// range-minimum recursion (GenerateSegmentTree) on edge-case and random
// inputs, at thresholds below, at and above the input length.
func TestScratchGenerateMatchesRMQ(t *testing.T) {
	const top = math.MaxUint64
	inputs := map[string][]uint64{
		"all equal":    {6, 6, 6, 6, 6, 6, 6, 6},
		"all max":      {top, top, top, top, top},
		"sawtooth":     {1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3},
		"max and zero": {top, 0, top, 0, top, top, 0},
		"ascending":    {1, 2, 3, 4, 5, 6, 7},
		"descending":   {7, 6, 5, 4, 3, 2, 1},
		"single":       {4},
		"empty":        {},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		vals := make([]uint64, 1+rng.Intn(200))
		domain := uint64(1 + rng.Intn(12)) // tie-heavy
		for j := range vals {
			vals[j] = rng.Uint64() % domain
		}
		inputs[fmt.Sprintf("random %d", i)] = vals
	}
	var s Scratch
	for _, vals := range inputs {
		n := len(vals)
		for _, tt := range []int{1, 2, 3, n - 1, n, n + 1, 25} { // n < t, n = t, n > t
			checkScratchGenerate(t, &s, vals, tt)
		}
	}
}

// TestCoverage verifies Theorem 1's second claim: every sequence [i, j]
// with j-i+1 >= t is contained in exactly one generated window, and no
// window contains a sequence of length < t that another window also
// contains (windows partition ALL sequences; validity only filters by
// width).
func TestCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(120)
		tt := 1 + rng.Intn(12)
		vals := make([]uint64, n)
		domain := uint64(1 + rng.Intn(25))
		for i := range vals {
			vals[i] = rng.Uint64() % domain
		}
		for _, g := range generators {
			ws := g.gen(vals, tt)
			for i := 0; i < n; i++ {
				for j := i + tt - 1; j < n; j++ {
					count := 0
					for _, w := range ws {
						if w.Contains(int32(i), int32(j)) {
							count++
						}
					}
					if count != 1 {
						t.Fatalf("%s trial %d: sequence [%d,%d] covered by %d windows (t=%d, vals=%v, ws=%v)",
							g.name, trial, i, j, count, tt, vals, ws)
					}
				}
			}
		}
	}
}

// TestMinHashCorrectness verifies that for every generated window, the
// value at C is the minimum of vals[L..R] — i.e. the window's min-hash
// annotation is correct for every sequence it represents.
func TestMinHashCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		tt := 1 + rng.Intn(15)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % 64
		}
		for _, g := range generators {
			for _, w := range g.gen(vals, tt) {
				for p := w.L; p <= w.R; p++ {
					if vals[p] < vals[w.C] {
						t.Fatalf("%s: window %v: vals[%d]=%d < vals[C]=%d", g.name, w, p, vals[p], vals[w.C])
					}
				}
			}
		}
	}
}

// TestMaximality verifies each window cannot be extended while keeping C
// the leftmost minimum.
func TestMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(150)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % 32
		}
		for _, g := range generators {
			for _, w := range g.gen(vals, 1) {
				if w.L > 0 && vals[w.L-1] > vals[w.C] {
					t.Fatalf("%s: window %v extendable left (vals[%d]=%d > %d)", g.name, w, w.L-1, vals[w.L-1], vals[w.C])
				}
				if int(w.R) < n-1 && vals[w.R+1] >= vals[w.C] {
					t.Fatalf("%s: window %v extendable right (vals[%d]=%d >= %d)", g.name, w, w.R+1, vals[w.R+1], vals[w.C])
				}
			}
		}
	}
}

// TestTheorem1Expectation checks the expected window count formula
// 2(n+1)/(t+1)-1 against the empirical mean over random permutations.
func TestTheorem1Expectation(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	rng := rand.New(rand.NewSource(71))
	for _, cfg := range []struct{ n, t int }{
		{100, 5}, {500, 25}, {1000, 50}, {2000, 100},
	} {
		trials := 200
		total := 0
		vals := make([]uint64, cfg.n)
		for tr := 0; tr < trials; tr++ {
			for i := range vals {
				vals[i] = rng.Uint64() // distinct w.h.p.
			}
			total += len(stackGenerate(vals, cfg.t))
		}
		mean := float64(total) / float64(trials)
		want := ExpectedCount(cfg.n, cfg.t)
		if math.Abs(mean-want)/want > 0.15 {
			t.Errorf("n=%d t=%d: empirical mean %.2f vs expected %.2f", cfg.n, cfg.t, mean, want)
		}
	}
}

func TestExpectedCount(t *testing.T) {
	if got := ExpectedCount(10, 11); got != 0 {
		t.Errorf("ExpectedCount(10,11) = %v, want 0", got)
	}
	if got := ExpectedCount(0, 1); got != 0 {
		t.Errorf("ExpectedCount(0,1) = %v, want 0", got)
	}
	// t=1 -> exactly n windows.
	if got := ExpectedCount(17, 1); got != 17 {
		t.Errorf("ExpectedCount(17,1) = %v, want 17", got)
	}
	// Paper's Example 1: n=17, t=5 -> 2*18/6-1 = 5.
	if got := ExpectedCount(17, 5); got != 5 {
		t.Errorf("ExpectedCount(17,5) = %v, want 5", got)
	}
}

// Contains reports whether the sequence [i, j] is represented by w: the
// coverage oracle of the window tests and fuzzers.
func (w Window) Contains(i, j int32) bool {
	return w.L <= i && i <= w.C && w.C <= j && j <= w.R
}

func TestWindowHelpers(t *testing.T) {
	w := Window{L: 2, C: 5, R: 9}
	if !w.Contains(3, 7) || w.Contains(6, 7) || w.Contains(3, 4) || w.Contains(1, 7) || w.Contains(3, 10) {
		t.Error("Contains misbehaves")
	}
	if w.String() != "(2,5,9)" {
		t.Errorf("String = %q", w.String())
	}
}

func TestHashesReuse(t *testing.T) {
	fam := hash.MustNewFamily(1, 5)
	tokens := []uint32{1, 2, 3, 4}
	buf := make([]uint64, 2) // too small: must grow
	out := Hashes(tokens, fam.Func(0), buf)
	if len(out) != 4 {
		t.Fatalf("len = %d, want 4", len(out))
	}
	for i, tok := range tokens {
		if out[i] != fam.Func(0).Hash(tok) {
			t.Fatalf("out[%d] mismatch", i)
		}
	}
	// Big enough buffer is reused in place.
	buf2 := make([]uint64, 8)
	out2 := Hashes(tokens, fam.Func(0), buf2)
	if &out2[0] != &buf2[0] {
		t.Error("buffer not reused")
	}
}

func TestGenerateTokens(t *testing.T) {
	fam := hash.MustNewFamily(1, 9)
	tokens := make([]uint32, 50)
	for i := range tokens {
		tokens[i] = uint32(i)
	}
	ws := GenerateTokens(tokens, fam.Func(0), 10)
	if len(ws) == 0 {
		t.Fatal("no windows generated")
	}
	// Same result as explicit pipeline.
	vals := Hashes(tokens, fam.Func(0), nil)
	want := stackGenerate(vals, 10)
	if !windowsEqual(ws, want) {
		t.Error("GenerateTokens disagrees with explicit pipeline")
	}
}

// sequencesAtLeast counts, one by one, the sequences of length >= t
// that w represents.
func sequencesAtLeast(w Window, t int) int64 {
	var n int64
	for i := w.L; i <= w.C; i++ {
		for j := w.C; j <= w.R; j++ {
			if int(j-i+1) >= t {
				n++
			}
		}
	}
	return n
}

// Property: the sum over windows of the sequences of length >= t each
// represents equals the total number of sequences of length >= t,
// n-t+1 + n-t + ... + 1.
func TestWindowCountsPartitionSequences(t *testing.T) {
	f := func(raw []uint16, tRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		tt := int(tRaw%20) + 1
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			vals[i] = uint64(v % 100)
		}
		n := len(vals)
		var want int64
		for L := tt; L <= n; L++ {
			want += int64(n - L + 1)
		}
		var got int64
		for _, w := range stackGenerate(vals, tt) {
			got += sequencesAtLeast(w, tt)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func benchGenerate(b *testing.B, n, t int, gen func([]uint64, int) []Window) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen(vals, t)
	}
}

// The builders' shape: one Scratch and one output slice across calls.
func BenchmarkScratchGenerate_n10k_t50(b *testing.B) {
	var s Scratch
	var ws []Window
	benchGenerate(b, 10000, 50, func(v []uint64, t int) []Window {
		ws = s.Generate(v, t, ws[:0])
		return ws
	})
}

// The builder's input shape: distinct 100–700-value texts in turn, not
// one repeated array whose branches the predictor learns; ns/value is
// per hash value generated over.
func BenchmarkScratchGenerate_texts_t25(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	texts := make([][]uint64, 4000)
	values := 0
	for i := range texts {
		texts[i] = make([]uint64, 100+rng.Intn(601))
		for j := range texts[i] {
			texts[i][j] = rng.Uint64()
		}
		values += len(texts[i])
	}
	var s Scratch
	var ws []Window
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vals := range texts {
			ws = s.Generate(vals, 25, ws[:0])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
}

func BenchmarkGenerateSegmentTree_n10k_t50(b *testing.B) {
	benchGenerate(b, 10000, 50, func(v []uint64, t int) []Window { return GenerateSegmentTree(v, t, nil) })
}
