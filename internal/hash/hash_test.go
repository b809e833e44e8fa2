package hash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFamilyValidation(t *testing.T) {
	if _, err := NewFamily(0, 1); err == nil {
		t.Fatal("NewFamily(0) should fail")
	}
	if _, err := NewFamily(-3, 1); err == nil {
		t.Fatal("NewFamily(-3) should fail")
	}
	fam, err := NewFamily(16, 42)
	if err != nil {
		t.Fatalf("NewFamily(16): %v", err)
	}
	if fam.K() != 16 {
		t.Fatalf("K() = %d, want 16", fam.K())
	}
	if fam.Seed() != 42 {
		t.Fatalf("Seed() = %d, want 42", fam.Seed())
	}
}

func TestFamilyDeterministic(t *testing.T) {
	a := MustNewFamily(8, 7)
	b := MustNewFamily(8, 7)
	for i := 0; i < 8; i++ {
		for tok := uint32(0); tok < 100; tok++ {
			if a.Func(i).Hash(tok) != b.Func(i).Hash(tok) {
				t.Fatalf("same seed produced different hashes at func %d token %d", i, tok)
			}
		}
	}
	c := MustNewFamily(8, 8)
	diff := false
	for i := 0; i < 8 && !diff; i++ {
		if a.Func(i).Hash(12345) != c.Func(i).Hash(12345) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical families")
	}
}

func TestFamilyFunctionsIndependent(t *testing.T) {
	fam := MustNewFamily(4, 99)
	// Different functions should disagree on at least some inputs.
	for i := 1; i < fam.K(); i++ {
		same := true
		for tok := uint32(0); tok < 32; tok++ {
			if fam.Func(0).Hash(tok) != fam.Func(i).Hash(tok) {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("functions 0 and %d agree on all test tokens", i)
		}
	}
}

func TestHashRange(t *testing.T) {
	fam := MustNewFamily(4, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		tok := rng.Uint32()
		for j := 0; j < fam.K(); j++ {
			h := fam.Func(j).Hash(tok)
			if h >= MersennePrime61 {
				t.Fatalf("hash %d out of range for token %d", h, tok)
			}
		}
	}
}

func TestMulAddMod61MatchesBigIntSemantics(t *testing.T) {
	// Verify modular arithmetic against a slow reference on random inputs.
	ref := func(a, x, b uint64) uint64 {
		// Compute (a*x + b) mod p via repeated 64-bit safe steps using
		// math/big-free double-and-add on 61-bit chunks.
		const p = MersennePrime61
		a %= p
		x %= p
		b %= p
		var r uint64
		for bit := 62; bit >= 0; bit-- {
			r = addMod(r, r, p)
			if x&(1<<uint(bit)) != 0 {
				r = addMod(r, a, p)
			}
		}
		return addMod(r, b, p)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a := rng.Uint64() % MersennePrime61
		x := rng.Uint64() % MersennePrime61
		b := rng.Uint64() % MersennePrime61
		got := mulAddMod61(a, x, b)
		want := ref(a, x, b)
		if got != want {
			t.Fatalf("mulAddMod61(%d,%d,%d) = %d, want %d", a, x, b, got, want)
		}
	}
}

func addMod(a, b, p uint64) uint64 {
	// a,b < p < 2^61 so a+b cannot overflow uint64.
	s := a + b
	if s >= p {
		s -= p
	}
	return s
}

func TestMinHashIgnoresDuplicates(t *testing.T) {
	fam := MustNewFamily(8, 11)
	seq := []uint32{5, 9, 5, 5, 9, 2}
	dedup := []uint32{5, 9, 2}
	for i := 0; i < fam.K(); i++ {
		a, err := fam.MinHash(i, seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fam.MinHash(i, dedup)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("min-hash differs between sequence and its distinct set at func %d", i)
		}
	}
}

func TestMinHashEmpty(t *testing.T) {
	fam := MustNewFamily(2, 1)
	if _, err := fam.MinHash(0, nil); err != ErrEmptySequence {
		t.Fatalf("MinHash(empty) err = %v, want ErrEmptySequence", err)
	}
	if _, err := fam.Sketch(nil); err != ErrEmptySequence {
		t.Fatalf("Sketch(empty) err = %v, want ErrEmptySequence", err)
	}
}

func TestMinHashIsMinimum(t *testing.T) {
	fam := MustNewFamily(4, 21)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		seq := make([]uint32, n)
		for i := range seq {
			seq[i] = rng.Uint32() % 1000
		}
		for j := 0; j < fam.K(); j++ {
			got, err := fam.MinHash(j, seq)
			if err != nil {
				t.Fatal(err)
			}
			want := fam.Func(j).Hash(seq[0])
			for _, tok := range seq[1:] {
				if h := fam.Func(j).Hash(tok); h < want {
					want = h
				}
			}
			if got != want {
				t.Fatalf("MinHash = %d, want %d", got, want)
			}
		}
	}
}

func TestSketchAndCollisions(t *testing.T) {
	fam := MustNewFamily(16, 33)
	a := []uint32{1, 2, 3, 4, 5}
	sa, err := fam.Sketch(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != 16 {
		t.Fatalf("sketch length %d, want 16", len(sa))
	}
	sb, _ := fam.Sketch(a)
	if Collisions(sa, sb) != 16 {
		t.Fatal("identical sequences should collide on every function")
	}
	if estimateJaccard(sa, sb) != 1 {
		t.Fatal("identical sequences should estimate Jaccard 1")
	}
	disjoint := []uint32{100, 200, 300}
	sc, _ := fam.Sketch(disjoint)
	if got := estimateJaccard(sa, sc); got > 0.25 {
		t.Fatalf("disjoint sequences estimated Jaccard %v, want near 0", got)
	}
}

func TestCollisionsMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Collisions with mismatched lengths should panic")
		}
	}()
	Collisions([]uint64{1}, []uint64{1, 2})
}

// TestEstimatorUnbiased checks that the min-hash collision fraction
// concentrates around the true distinct Jaccard similarity.
func TestEstimatorUnbiased(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	fam := MustNewFamily(512, 77)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		// Build two overlapping sets with known Jaccard.
		common := 20 + rng.Intn(30)
		onlyA := rng.Intn(20)
		onlyB := rng.Intn(20)
		var a, b []uint32
		next := uint32(trial * 100000)
		for i := 0; i < common; i++ {
			a = append(a, next)
			b = append(b, next)
			next++
		}
		for i := 0; i < onlyA; i++ {
			a = append(a, next)
			next++
		}
		for i := 0; i < onlyB; i++ {
			b = append(b, next)
			next++
		}
		truth := float64(common) / float64(common+onlyA+onlyB)
		sa, _ := fam.Sketch(a)
		sb, _ := fam.Sketch(b)
		est := estimateJaccard(sa, sb)
		// k=512 gives std dev <= 1/(2*sqrt(512)) ~ 0.022; allow 5 sigma.
		if math.Abs(est-truth) > 0.12 {
			t.Fatalf("trial %d: estimate %v too far from truth %v", trial, est, truth)
		}
	}
}

func TestDistinctJaccard(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want float64
	}{
		{nil, nil, 1},
		{[]uint32{1}, nil, 0},
		{nil, []uint32{1}, 0},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 1},
		{[]uint32{1, 2, 3}, []uint32{4, 5, 6}, 0},
		{[]uint32{1, 2}, []uint32{2, 3}, 1.0 / 3},
		// Paper's example: (A,A,A,B,B) vs (A,B,B,B,C) -> distinct 2/3.
		{[]uint32{1, 1, 1, 2, 2}, []uint32{1, 2, 2, 2, 3}, 2.0 / 3},
	}
	for i, c := range cases {
		if got := DistinctJaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: DistinctJaccard = %v, want %v", i, got, c.want)
		}
	}
}

func TestMultisetJaccard(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want float64
	}{
		{nil, nil, 1},
		{[]uint32{1}, nil, 0},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 1},
		// Paper's example: (A,A,A,B,B) vs (A,B,B,B,C) -> 3/7.
		{[]uint32{1, 1, 1, 2, 2}, []uint32{1, 2, 2, 2, 3}, 3.0 / 7},
		{[]uint32{1, 1}, []uint32{1}, 0.5},
	}
	for i, c := range cases {
		if got := MultisetJaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: MultisetJaccard = %v, want %v", i, got, c.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// Symmetry and range for both metrics.
	sym := func(a, b []uint32) bool {
		d1, d2 := DistinctJaccard(a, b), DistinctJaccard(b, a)
		m1, m2 := MultisetJaccard(a, b), MultisetJaccard(b, a)
		return d1 == d2 && m1 == m2 &&
			d1 >= 0 && d1 <= 1 && m1 >= 0 && m1 <= 1
	}
	if err := quick.Check(sym, cfg); err != nil {
		t.Error(err)
	}
	// Self-similarity is 1.
	self := func(a []uint32) bool {
		if len(a) == 0 {
			return true
		}
		return DistinctJaccard(a, a) == 1 && MultisetJaccard(a, a) == 1
	}
	if err := quick.Check(self, cfg); err != nil {
		t.Error(err)
	}
	// Multiset <= distinct does NOT hold in general, but both are bounded
	// by the containment check: intersection non-empty iff similarity > 0.
	pos := func(a, b []uint32) bool {
		inter := false
		set := map[uint32]bool{}
		for _, x := range a {
			set[x] = true
		}
		for _, y := range b {
			if set[y] {
				inter = true
				break
			}
		}
		d := DistinctJaccard(a, b)
		m := MultisetJaccard(a, b)
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		return (d > 0) == inter && (m > 0) == inter
	}
	if err := quick.Check(pos, cfg); err != nil {
		t.Error(err)
	}
}

// TestMinHashCollisionMatchesSetEquality: under one hash function, two
// sequences with the same distinct token set always share the min-hash.
func TestMinHashCollisionSetInvariance(t *testing.T) {
	fam := MustNewFamily(4, 123)
	f := func(perm []uint32) bool {
		if len(perm) == 0 {
			return true
		}
		// Shuffled copy with duplicates appended has the same distinct set.
		dup := append(append([]uint32{}, perm...), perm[0], perm[len(perm)/2])
		for i := 0; i < fam.K(); i++ {
			a, _ := fam.MinHash(i, perm)
			b, _ := fam.MinHash(i, dup)
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMinHash64Tokens(b *testing.B) {
	fam := MustNewFamily(1, 1)
	seq := make([]uint32, 64)
	for i := range seq {
		seq[i] = uint32(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = fam.MinHash(0, seq)
	}
}

func BenchmarkSketchK32(b *testing.B) {
	fam := MustNewFamily(32, 1)
	seq := make([]uint32, 64)
	for i := range seq {
		seq[i] = uint32(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = fam.Sketch(seq)
	}
}

// estimateJaccard estimates the Jaccard similarity of the sequences
// whose sketches are a and b as the collision fraction. The estimator is
// unbiased with variance O(1/k).
func estimateJaccard(a, b []uint64) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(Collisions(a, b)) / float64(len(a))
}
