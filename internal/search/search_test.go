package search

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/hash"
	"ndss/internal/index"
)

// oracleSpans computes the ground truth of Definition 2 by brute force:
// for every sequence of length >= t in every text, count min-hash
// collisions with the query; merge overlapping qualifying sequences into
// disjoint spans per text.
func oracleSpans(c *corpus.Corpus, fam *hash.Family, query []uint32, theta float64, t int) map[uint32][]Interval {
	k := fam.K()
	beta := int(math.Ceil(float64(k) * theta))
	qs, err := fam.Sketch(query)
	if err != nil {
		panic(err)
	}
	result := make(map[uint32][]Interval)
	for id := 0; id < c.NumTexts(); id++ {
		text := c.Text(uint32(id))
		var qualifying []Interval
		for i := 0; i < len(text); i++ {
			// Incremental min-hash while extending j.
			mins := make([]uint64, k)
			for fn := 0; fn < k; fn++ {
				mins[fn] = fam.Func(fn).Hash(text[i])
			}
			for j := i; j < len(text); j++ {
				if j > i {
					for fn := 0; fn < k; fn++ {
						if h := fam.Func(fn).Hash(text[j]); h < mins[fn] {
							mins[fn] = h
						}
					}
				}
				if j-i+1 < t {
					continue
				}
				coll := 0
				for fn := 0; fn < k; fn++ {
					if mins[fn] == qs[fn] {
						coll++
					}
				}
				if coll >= beta {
					qualifying = append(qualifying, Interval{int32(i), int32(j)})
				}
			}
		}
		if len(qualifying) == 0 {
			continue
		}
		sort.Slice(qualifying, func(a, b int) bool {
			if qualifying[a].Lo != qualifying[b].Lo {
				return qualifying[a].Lo < qualifying[b].Lo
			}
			return qualifying[a].Hi < qualifying[b].Hi
		})
		var merged []Interval
		cur := qualifying[0]
		for _, iv := range qualifying[1:] {
			if iv.Lo <= cur.Hi { // overlap
				if iv.Hi > cur.Hi {
					cur.Hi = iv.Hi
				}
			} else {
				merged = append(merged, cur)
				cur = iv
			}
		}
		merged = append(merged, cur)
		result[uint32(id)] = merged
	}
	return result
}

func matchesToSpans(ms []Match) map[uint32][]Interval {
	out := make(map[uint32][]Interval)
	for _, m := range ms {
		out[m.TextID] = append(out[m.TextID], Interval{m.Start, m.End})
	}
	return out
}

func buildTestIndex(t *testing.T, c *corpus.Corpus, k int, seed int64, tt int, zoneStep, longCutoff int) *index.Index {
	t.Helper()
	dir := t.TempDir()
	opts := index.BuildOptions{K: k, Seed: seed, T: tt}
	if zoneStep > 0 {
		opts.ZoneMapStep = zoneStep
	}
	if longCutoff > 0 {
		opts.LongListCutoff = longCutoff
	}
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

// smallDupCorpus builds a corpus with heavy token reuse so queries find
// near-duplicates.
func smallDupCorpus(numTexts, minLen, maxLen, vocab int, seed int64) *corpus.Corpus {
	return corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts:      numTexts,
		MinLength:     minLen,
		MaxLength:     maxLen,
		VocabSize:     vocab,
		ZipfS:         1.3,
		Seed:          seed,
		DupRate:       0.5,
		DupSnippetLen: 20,
		DupMutateProb: 0.05,
	})
}

// TestSearchMatchesOracle is the Theorem 2 soundness/completeness check:
// the index-based search must return exactly the Definition 2 answer,
// with and without prefix filtering.
func TestSearchMatchesOracle(t *testing.T) {
	const (
		k    = 8
		seed = 77
		tt   = 5
	)
	for trial := int64(0); trial < 6; trial++ {
		c := smallDupCorpus(15, 20, 60, 40, 100+trial)
		ix := buildTestIndex(t, c, k, seed, tt, 4, 10) // tiny zones: exercise probes
		fam := hash.MustNewFamily(k, seed)
		s := New(ix, c)
		rng := rand.New(rand.NewSource(trial))
		for _, theta := range []float64{0.5, 0.75, 1.0} {
			q, _, _, ok := corpus.PlantQuery(c, 12, 0.15, 40, rng)
			if !ok {
				t.Fatal("PlantQuery failed")
			}
			want := oracleSpans(c, fam, q, theta, tt)
			for _, pf := range []bool{false, true} {
				got, st, err := s.Search(q, Options{Theta: theta, PrefixFilter: pf})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(matchesToSpans(got), want) {
					t.Fatalf("trial %d theta=%v pf=%v:\ngot  %v\nwant %v\nstats %+v",
						trial, theta, pf, matchesToSpans(got), want, st)
				}
			}
		}
	}
}

// TestSearchCollisionCounts verifies the reported collision counts: the
// best sequence in each match must collide exactly Collisions times.
func TestSearchCollisionCounts(t *testing.T) {
	const k, seed, tt = 8, 13, 5
	c := smallDupCorpus(12, 20, 50, 30, 9)
	ix := buildTestIndex(t, c, k, seed, tt, 0, 0)
	fam := hash.MustNewFamily(k, seed)
	s := New(ix, c)
	rng := rand.New(rand.NewSource(4))
	q, _, _, ok := corpus.PlantQuery(c, 10, 0.1, 30, rng)
	if !ok {
		t.Fatal("PlantQuery failed")
	}
	ms, _, err := s.Search(q, Options{Theta: 0.5, KeepRects: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := fam.Sketch(q)
	for _, m := range ms {
		if len(m.Rects) == 0 {
			t.Fatal("KeepRects produced no rects")
		}
		best := 0
		for _, r := range m.Rects {
			// Oracle-check one valid sequence inside the rect: start at
			// ILo and extend to length >= tt (fits because the rect
			// passed HasSequenceOfLength).
			i, j := r.ILo, r.JLo
			if need := i + int32(tt) - 1; j < need {
				j = need
			}
			if j > r.JHi {
				t.Fatalf("rect %+v has no sequence of length %d", r, tt)
			}
			text := c.Text(m.TextID)
			seq := text[i : j+1]
			ss, _ := fam.Sketch(seq)
			if got := hash.Collisions(qs, ss); got != r.Count {
				t.Fatalf("rect %+v: sequence [%d,%d] collides %d times, rect says %d",
					r, i, j, got, r.Count)
			}
			if r.Count > best {
				best = r.Count
			}
		}
		if m.Collisions != best {
			t.Fatalf("match Collisions = %d, best rect = %d", m.Collisions, best)
		}
		if m.EstJaccard != float64(best)/float64(k) {
			t.Fatalf("EstJaccard = %v", m.EstJaccard)
		}
	}
}

func TestSearchVerify(t *testing.T) {
	const k, seed, tt = 8, 21, 5
	c := smallDupCorpus(12, 20, 50, 30, 5)
	ix := buildTestIndex(t, c, k, seed, tt, 0, 0)
	s := New(ix, c)
	rng := rand.New(rand.NewSource(8))
	q, _, _, ok := corpus.PlantQuery(c, 10, 0, 30, rng)
	if !ok {
		t.Fatal("PlantQuery failed")
	}
	ms, _, err := s.Search(q, Options{Theta: 0.6, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Skip("no matches to verify")
	}
	for _, m := range ms {
		want := hash.DistinctJaccard(q, c.Text(m.TextID)[m.Start:m.End+1])
		if m.Jaccard != want {
			t.Fatalf("Jaccard = %v, want %v", m.Jaccard, want)
		}
	}
	// Verification without a source fails cleanly.
	s2 := New(ix, nil)
	if _, _, err := s2.Search(q, Options{Theta: 0.6, Verify: true}); err == nil {
		t.Fatal("Verify without TextSource should fail")
	}
}

func TestSearchExactDuplicate(t *testing.T) {
	// theta = 1.0 on a planted exact copy must find the source text.
	const k, seed, tt = 16, 31, 8
	c := smallDupCorpus(10, 30, 60, 500, 77)
	ix := buildTestIndex(t, c, k, seed, tt, 0, 0)
	s := New(ix, c)
	rng := rand.New(rand.NewSource(1))
	q, srcID, srcStart, ok := corpus.PlantQuery(c, 20, 0, 500, rng)
	if !ok {
		t.Fatal("PlantQuery failed")
	}
	ms, _, err := s.Search(q, Options{Theta: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.TextID == srcID && m.Start <= srcStart && srcStart+19 <= m.End {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact duplicate not found: planted at text %d pos %d, got %+v", srcID, srcStart, ms)
	}
}

func TestSearchOptionValidation(t *testing.T) {
	c := smallDupCorpus(5, 20, 40, 30, 3)
	ix := buildTestIndex(t, c, 4, 1, 5, 0, 0)
	s := New(ix, c)
	q := []uint32{1, 2, 3, 4, 5, 6}
	if _, _, err := s.Search(q, Options{Theta: 0}); err == nil {
		t.Error("Theta=0 should fail")
	}
	if _, _, err := s.Search(q, Options{Theta: 1.5}); err == nil {
		t.Error("Theta>1 should fail")
	}
	if _, _, err := s.Search(nil, Options{Theta: 0.5}); err == nil {
		t.Error("empty query should fail")
	}
	if _, _, err := s.Search(q, Options{Theta: 0.5, MinLength: 3}); err == nil {
		t.Error("MinLength below index T should fail")
	}
	if _, _, err := s.Search(q, Options{Theta: 0.5, MinLength: 7}); err != nil {
		t.Errorf("MinLength above T should work: %v", err)
	}
}

func TestSearchStats(t *testing.T) {
	const k = 8
	c := smallDupCorpus(20, 20, 60, 30, 15)
	ix := buildTestIndex(t, c, k, 3, 5, 4, 10)
	s := New(ix, c)
	rng := rand.New(rand.NewSource(2))
	q, _, _, _ := corpus.PlantQuery(c, 12, 0.1, 30, rng)
	_, st, err := s.Search(q, Options{Theta: 0.5, PrefixFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.K != k || st.Beta != 4 {
		t.Fatalf("stats K=%d Beta=%d", st.K, st.Beta)
	}
	if st.ShortLists+st.LongLists != k {
		t.Fatalf("lists split %d + %d != %d", st.ShortLists, st.LongLists, k)
	}
	if st.IOBytes <= 0 {
		t.Fatalf("IOBytes = %d", st.IOBytes)
	}
	if st.Total <= 0 {
		t.Fatal("Total duration not measured")
	}
}

func TestSearchMinLengthAboveT(t *testing.T) {
	// Raising MinLength must only shrink the result set.
	const k, seed, tt = 8, 5, 5
	c := smallDupCorpus(15, 30, 60, 30, 25)
	ix := buildTestIndex(t, c, k, seed, tt, 0, 0)
	s := New(ix, c)
	rng := rand.New(rand.NewSource(6))
	q, _, _, _ := corpus.PlantQuery(c, 15, 0.1, 30, rng)
	base, _, err := s.Search(q, Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	longer, _, err := s.Search(q, Options{Theta: 0.5, MinLength: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(longer) > len(base) {
		t.Fatalf("MinLength=10 found %d matches, base %d", len(longer), len(base))
	}
	// Oracle comparison at the larger length.
	fam := hash.MustNewFamily(k, seed)
	want := oracleSpans(c, fam, q, 0.5, 10)
	if !reflect.DeepEqual(matchesToSpans(longer), want) {
		t.Fatalf("MinLength=10: got %v want %v", matchesToSpans(longer), want)
	}
}

// TestPrefixFilterEquivalence fuzzes prefix filtering across build-time
// long-list cutoffs: results must be identical to the unfiltered search.
func TestPrefixFilterEquivalence(t *testing.T) {
	const k, seed, tt = 8, 45, 5
	c := smallDupCorpus(25, 20, 70, 25, 45) // tiny vocab: long lists abound
	cutoffs := []int{1, 5, 20, 100}
	searchers := make([]*Searcher, len(cutoffs))
	for i, cutoff := range cutoffs {
		searchers[i] = New(buildTestIndex(t, c, k, seed, tt, 4, cutoff), c)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		q, _, _, ok := corpus.PlantQuery(c, 10, 0.2, 25, rng)
		if !ok {
			continue
		}
		theta := []float64{0.4, 0.6, 0.8, 1.0}[trial%4]
		base, _, err := searchers[0].Search(q, Options{Theta: theta})
		if err != nil {
			t.Fatal(err)
		}
		for i, cutoff := range cutoffs {
			got, _, err := searchers[i].Search(q, Options{Theta: theta, PrefixFilter: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(matchesToSpans(got), matchesToSpans(base)) {
				t.Fatalf("trial %d cutoff %d theta %v: filtered result differs\ngot  %v\nwant %v",
					trial, cutoff, theta, matchesToSpans(got), matchesToSpans(base))
			}
		}
	}
}
