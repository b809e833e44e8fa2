package search_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ndss/internal/baseline"
	"ndss/internal/corpus"
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
