package window

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ndss/internal/hash"
	"ndss/internal/rmq"
)

// generators lists all window generators under test; they must produce
// identical window sets.
var generators = []struct {
	name string
	gen  func(vals []uint64, t int) []Window
}{
	{"Linear", func(v []uint64, t int) []Window { return GenerateLinear(v, t, nil) }},
	{"RMQ-Sparse", func(v []uint64, t int) []Window {
		return Generate(v, t, func(x []uint64) rmq.RMQ { return rmq.NewSparse(x) }, nil)
	}},
	{"RMQ-SegTree", func(v []uint64, t int) []Window {
		return Generate(v, t, func(x []uint64) rmq.RMQ { return rmq.NewSegmentTree(x) }, nil)
	}},
	{"RMQ-Linear", func(v []uint64, t int) []Window {
		return Generate(v, t, func(x []uint64) rmq.RMQ { return rmq.NewLinear(x) }, nil)
	}},
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

// checkScratchGenerate runs the one-pass generator on a Scratch that has
// just served a longer, different input, and checks the output against
// the RMQ recursion as a set, for strictly ascending C, and for nothing
// left over from the earlier call.
func checkScratchGenerate(t *testing.T, s *Scratch, vals []uint64, tt int) {
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
	ref := Generate(vals, tt, func(x []uint64) rmq.RMQ { return rmq.NewSparse(x) }, nil)
	if !windowsEqual(append([]Window{}, got...), ref) {
		t.Fatalf("t=%d vals=%v: one-pass %v, RMQ %v", tt, vals, got, ref)
	}
}

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
		ws := GenerateLinear(vals, tt, nil)
		for i := 0; i < n; i++ {
			for j := i + tt - 1; j < n; j++ {
				count := 0
				for _, w := range ws {
					if w.Contains(int32(i), int32(j)) {
						count++
					}
				}
				if count != 1 {
					t.Fatalf("trial %d: sequence [%d,%d] covered by %d windows (t=%d, vals=%v, ws=%v)",
						trial, i, j, count, tt, vals, ws)
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
		for _, w := range GenerateLinear(vals, tt, nil) {
			for p := w.L; p <= w.R; p++ {
				if vals[p] < vals[w.C] {
					t.Fatalf("window %v: vals[%d]=%d < vals[C]=%d", w, p, vals[p], vals[w.C])
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
		for _, w := range GenerateLinear(vals, 1, nil) {
			if w.L > 0 && vals[w.L-1] > vals[w.C] {
				t.Fatalf("window %v extendable left (vals[%d]=%d > %d)", w, w.L-1, vals[w.L-1], vals[w.C])
			}
			if int(w.R) < n-1 && vals[w.R+1] >= vals[w.C] {
				t.Fatalf("window %v extendable right (vals[%d]=%d >= %d)", w, w.R+1, vals[w.R+1], vals[w.C])
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
			total += len(GenerateLinear(vals, cfg.t, nil))
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

func TestWindowHelpers(t *testing.T) {
	w := Window{L: 2, C: 5, R: 9}
	if w.Width() != 8 {
		t.Errorf("Width = %d, want 8", w.Width())
	}
	if !w.Contains(3, 7) || w.Contains(6, 7) || w.Contains(3, 4) || w.Contains(1, 7) || w.Contains(3, 10) {
		t.Error("Contains misbehaves")
	}
	// Count: starts in [2,5] (4 options) x ends in [5,9] (5 options).
	if w.Count() != 20 {
		t.Errorf("Count = %d, want 20", w.Count())
	}
	// CountAtLeast with t=1 equals Count.
	if w.CountAtLeast(1) != 20 {
		t.Errorf("CountAtLeast(1) = %d, want 20", w.CountAtLeast(1))
	}
	// Brute-force check CountAtLeast for several t.
	for tt := 1; tt <= 10; tt++ {
		want := int64(0)
		for i := w.L; i <= w.C; i++ {
			for j := w.C; j <= w.R; j++ {
				if int(j-i+1) >= tt {
					want++
				}
			}
		}
		if got := w.CountAtLeast(tt); got != want {
			t.Errorf("CountAtLeast(%d) = %d, want %d", tt, got, want)
		}
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
	want := GenerateLinear(vals, 10, nil)
	if !windowsEqual(ws, want) {
		t.Error("GenerateTokens disagrees with explicit pipeline")
	}
}

// Property: the sum over windows of CountAtLeast(t) equals the total
// number of sequences of length >= t, n-t+1 + n-t + ... + 1.
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
		for _, w := range GenerateLinear(vals, tt, nil) {
			got += w.CountAtLeast(tt)
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

func BenchmarkGenerateLinear_n10k_t50(b *testing.B) {
	benchGenerate(b, 10000, 50, func(v []uint64, t int) []Window { return GenerateLinear(v, t, nil) })
}

// The builders' shape: one Scratch and one output slice across calls.
func BenchmarkGenerateLinearScratch_n10k_t50(b *testing.B) {
	var s Scratch
	var ws []Window
	benchGenerate(b, 10000, 50, func(v []uint64, t int) []Window {
		ws = s.Generate(v, t, ws[:0])
		return ws
	})
}

func BenchmarkGenerateRMQSparse_n10k_t50(b *testing.B) {
	benchGenerate(b, 10000, 50, func(v []uint64, t int) []Window {
		return Generate(v, t, func(x []uint64) rmq.RMQ { return rmq.NewSparse(x) }, nil)
	})
}

func BenchmarkGenerateRMQSegTree_n10k_t50(b *testing.B) {
	benchGenerate(b, 10000, 50, func(v []uint64, t int) []Window {
		return Generate(v, t, func(x []uint64) rmq.RMQ { return rmq.NewSegmentTree(x) }, nil)
	})
}

func BenchmarkGenerateRMQLinear_n10k_t50(b *testing.B) {
	benchGenerate(b, 10000, 50, func(v []uint64, t int) []Window {
		return Generate(v, t, func(x []uint64) rmq.RMQ { return rmq.NewLinear(x) }, nil)
	})
}
