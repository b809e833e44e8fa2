package search_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ndss/internal/baseline"
	"ndss/internal/corpus"
	"ndss/internal/fsio"
	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/search"
)

// TestSegmentedDeferralExact runs the prefix filter on a segmented index
// — a base plus eight appends, tombstones in the base and in one
// appended segment — where the per-(list, segment) deferral rule keeps
// zone-mapped base lists deferred beside the small appended portions.
// Most plans must defer, and the matches must not depend on it: equal
// with PrefixFilter on and off, equal after compaction, and equal to the
// Definition-2 brute force over the live texts on a sample.
func TestSegmentedDeferralExact(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 200, MinLength: 40, MaxLength: 120, VocabSize: 300,
		ZipfS: 1.2, Seed: 41, DupRate: 0.3, DupSnippetLen: 30, DupMutateProb: 0.05,
	})
	opts := index.BuildOptions{K: 16, Seed: 5, T: 8, ZoneMapStep: 16, LongListCutoff: 64}
	dir := filepath.Join(t.TempDir(), "ix")
	sizes := []int{176, 3, 3, 3, 3, 3, 3, 3, 3}
	next := 0
	for i, n := range sizes {
		part := corpus.New(nil)
		for ; part.NumTexts() < n; next++ {
			part.Append(c.Text(uint32(next)))
		}
		var err error
		if i == 0 {
			_, err = index.Build(part, dir, opts)
		} else {
			_, err = index.Append(dir, part)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	deleted := []uint32{5, 60, 180}
	if err := index.Delete(dir, deleted); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	var queries [][]uint32
	for len(queries) < 40 {
		text := c.Text(uint32(rng.Intn(c.NumTexts())))
		n := 16 + rng.Intn(24)
		if len(text) < n {
			continue
		}
		start := rng.Intn(len(text) - n + 1)
		queries = append(queries, text[start:start+n])
	}
	thetas := []float64{0.5, 0.8, 1}

	// run answers every (query, theta) with the prefix filter on and
	// off, requiring the two to agree, and counts the plans that defer.
	run := func(ix *index.Index) (answers [][]search.Match, deferred int) {
		t.Helper()
		s := search.New(ix, nil)
		for _, q := range queries {
			for _, theta := range thetas {
				plan, err := s.Explain(q, search.Options{Theta: theta, PrefixFilter: true})
				if err != nil {
					t.Fatal(err)
				}
				if plan.NumLong > 0 {
					deferred++
				}
				on, st, err := s.Search(q, search.Options{Theta: theta, PrefixFilter: true})
				if err != nil {
					t.Fatal(err)
				}
				if st.LongLists != plan.NumLong {
					t.Fatalf("search deferred %d lists, its plan %d", st.LongLists, plan.NumLong)
				}
				off, _, err := s.Search(q, search.Options{Theta: theta})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(on, off) {
					t.Fatalf("%d segments, theta %v, query %v: prefix filter changed the matches:\non  %+v\noff %+v",
						ix.SegmentCount(), theta, q, on, off)
				}
				answers = append(answers, on)
			}
		}
		return answers, deferred
	}

	segmented, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer segmented.Close()
	if segmented.SegmentCount() != len(sizes) {
		t.Fatalf("fixture has %d segments, want %d", segmented.SegmentCount(), len(sizes))
	}
	want, deferred := run(segmented)
	if total := len(queries) * len(thetas); 2*deferred <= total {
		t.Fatalf("only %d of %d segmented plans defer a list", deferred, total)
	}

	// The brute force over the live texts, on a sample.
	fam := hash.MustNewFamily(opts.K, opts.Seed)
	for i := 0; i < len(want); i += 7 {
		q, theta := queries[i/len(thetas)], thetas[i%len(thetas)]
		var oracle []baseline.Span
		for _, sp := range baseline.MinHashScan(c, fam, q, theta, opts.T) {
			if !slices.Contains(deleted, sp.TextID) {
				oracle = append(oracle, sp)
			}
		}
		var got []baseline.Span
		for _, m := range want[i] {
			got = append(got, baseline.Span{TextID: m.TextID, Start: m.Start, End: m.End})
		}
		if !slices.Equal(got, oracle) {
			t.Fatalf("theta %v, query %v: matches %v, brute force %v", theta, q, got, oracle)
		}
	}

	if err := index.Compact(dir); err != nil {
		t.Fatal(err)
	}
	compacted, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer compacted.Close()
	if got, _ := run(compacted); !reflect.DeepEqual(got, want) {
		t.Fatal("compaction changed the matches")
	}
}

// standalone opens a standalone index of c: it lists exactly the
// hashes a segment holding c's texts lists, since a segment is a Build
// of its texts.
func standalone(t *testing.T, c *corpus.Corpus, opts index.BuildOptions) *index.Index {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := index.Build(c, dir, opts); err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// present counts the functions whose sketch hash ix lists.
func present(t *testing.T, ix *index.Index, sketch []uint64) int {
	t.Helper()
	n := 0
	for fn, h := range sketch {
		list, err := ix.ReadListInto(nil, fn, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(list) > 0 {
			n++
		}
	}
	return n
}

// TestSegmentPigeonholeExact runs queries on a base plus many tiny
// appends, with tombstones in the base and in appends, where most
// appended segments hold fewer than beta of a query's hashes. A segment
// that does must see no read at all, and the matches must not depend on
// it: equal with PrefixFilter on and off, equal after compaction, and
// equal to the Definition-2 brute force over the live texts on a
// sample. Stats.Rects
// must agree everywhere too; Candidates and Probed need not, because the
// plan counts only the segments it reads.
func TestSegmentPigeonholeExact(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 160, MinLength: 30, MaxLength: 90, VocabSize: 250,
		ZipfS: 1.2, Seed: 53, DupRate: 0.3, DupSnippetLen: 25, DupMutateProb: 0.05,
	})
	opts := index.BuildOptions{K: 16, Seed: 11, T: 8, ZoneMapStep: 16, LongListCutoff: 48}
	dir := filepath.Join(t.TempDir(), "ix")
	sizes := []int{100}
	for len(sizes) < 21 {
		sizes = append(sizes, 3)
	}
	var segs []*index.Index
	next := 0
	for i, n := range sizes {
		part := corpus.New(nil)
		for ; part.NumTexts() < n; next++ {
			part.Append(c.Text(uint32(next)))
		}
		var err error
		if i == 0 {
			_, err = index.Build(part, dir, opts)
		} else {
			_, err = index.Append(dir, part)
		}
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, standalone(t, part, opts))
	}
	live := corpus.New(nil)
	for id := 0; id < next; id++ {
		live.Append(c.Text(uint32(id)))
	}
	deleted := []uint32{4, 77, 101, 130, 158}
	if err := index.Delete(dir, deleted); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	var queries [][]uint32
	for len(queries) < 30 {
		// Half the queries come from appended texts, so segments other
		// than the base are read too.
		id := rng.Intn(sizes[0])
		if len(queries)%2 == 1 {
			id = sizes[0] + rng.Intn(next-sizes[0])
		}
		text := live.Text(uint32(id))
		n := 12 + rng.Intn(20)
		if len(text) < n {
			continue
		}
		start := rng.Intn(len(text) - n + 1)
		queries = append(queries, text[start:start+n])
	}
	thetas := []float64{0.6, 0.8, 1}
	fam := hash.MustNewFamily(opts.K, opts.Seed)

	counted := &search.ReadCountFS{FS: fsio.OS}
	segmented, err := index.OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer segmented.Close()
	segFiles := segmented.Segments()
	s := search.New(segmented, nil)
	type answer struct {
		matches []search.Match
		rects   int
	}
	var want []answer
	dropped, keptAppends := 0, 0
	for qi, q := range queries {
		sketch, err := fam.Sketch(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, theta := range thetas {
			before := make([]int64, len(segFiles))
			for si, sf := range segFiles {
				before[si] = counted.Reads(filepath.Join(dir, sf.Name))
			}
			on, stOn, err := s.Search(q, search.Options{Theta: theta, PrefixFilter: true})
			if err != nil {
				t.Fatal(err)
			}
			off, stOff, err := s.Search(q, search.Options{Theta: theta})
			if err != nil {
				t.Fatal(err)
			}
			for si, sf := range segFiles {
				reads := counted.Reads(filepath.Join(dir, sf.Name)) - before[si]
				switch p := present(t, segs[si], sketch); {
				case float64(p)/float64(opts.K) < theta: // fewer than β hashes
					dropped++
					if reads != 0 {
						t.Fatalf("query %d theta %v: segment %d holds %d < beta of the %d hashes, yet was read %d times", qi, theta, si, p, opts.K, reads)
					}
				case si > 0:
					keptAppends++
				}
			}
			if !reflect.DeepEqual(on, off) || stOn.Rects != stOff.Rects {
				t.Fatalf("query %d theta %v: prefix filter changed the answer: %d vs %d rects\non  %+v\noff %+v", qi, theta, stOn.Rects, stOff.Rects, on, off)
			}
			if len(want)%2 == 0 { // the brute force, on a sample
				var oracle []baseline.Span
				for _, sp := range baseline.MinHashScan(live, fam, q, theta, opts.T) {
					if !slices.Contains(deleted, sp.TextID) {
						oracle = append(oracle, sp)
					}
				}
				var got []baseline.Span
				for _, m := range on {
					got = append(got, baseline.Span{TextID: m.TextID, Start: m.Start, End: m.End})
				}
				if !slices.Equal(got, oracle) {
					t.Fatalf("query %d theta %v: matches %v, brute force %v", qi, theta, got, oracle)
				}
			}
			want = append(want, answer{on, stOn.Rects})
		}
	}
	// Unless most appended segments are dropped and some are read, the
	// assertions above are vacuous.
	if total := len(queries) * len(thetas) * len(segFiles); 2*dropped <= total || keptAppends == 0 {
		t.Fatalf("degenerate fixture: %d of %d (query, segment) pairs dropped, %d appended segments read", dropped, total, keptAppends)
	}

	if err := index.Compact(dir); err != nil {
		t.Fatal(err)
	}
	compacted, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer compacted.Close()
	sc := search.New(compacted, nil)
	i := 0
	for qi, q := range queries {
		for _, theta := range thetas {
			ms, st, err := sc.Search(q, search.Options{Theta: theta, PrefixFilter: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ms, want[i].matches) || st.Rects != want[i].rects {
				t.Fatalf("query %d theta %v: compaction changed the answer: %d vs %d rects\nafter  %+v\nbefore %+v", qi, theta, st.Rects, want[i].rects, ms, want[i].matches)
			}
			i++
		}
	}
}

// TestSingleSegmentBelowBeta: on one segment, a query whose hashes the
// segment lists only some of, fewer than beta, can match nothing, so it
// must read nothing at all.
func TestSingleSegmentBelowBeta(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 30, MaxLength: 80, VocabSize: 100,
		ZipfS: 1.2, Seed: 61, DupRate: 0.3, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	opts := index.BuildOptions{K: 16, Seed: 3, T: 8}
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := index.Build(c, dir, opts); err != nil {
		t.Fatal(err)
	}
	listed := standalone(t, c, opts)
	counted := &search.ReadCountFS{FS: fsio.OS}
	ix, err := index.OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	s := search.New(ix, nil)
	// Half a text, half tokens outside the vocabulary: some of the
	// sketch is listed, not all of it.
	text := c.Text(0)
	q := slices.Clone(text[:len(text)/2])
	for tok := uint32(1000); len(q) < len(text); tok++ {
		q = append(q, tok)
	}
	sketch, err := ix.Family().Sketch(q)
	if err != nil {
		t.Fatal(err)
	}
	p := present(t, listed, sketch)
	if p == 0 || p >= opts.K {
		t.Fatalf("degenerate query: the segment lists %d of its %d hashes", p, opts.K)
	}
	theta := float64(p+1) / float64(opts.K)
	for _, prefix := range []bool{false, true} {
		before := counted.Total()
		ms, st, err := s.Search(q, search.Options{Theta: theta, PrefixFilter: prefix})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 || st.IOBytes != 0 || counted.Total() != before {
			t.Fatalf("prefix filter %v: %d of beta %d hashes listed, yet %d matches, %d bytes in %d reads",
				prefix, p, st.Beta, len(ms), st.IOBytes, counted.Total()-before)
		}
	}
}
