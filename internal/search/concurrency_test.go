package search

import (
	"math/rand"
	"reflect"
	"testing"

	"ndss/internal/corpus"
)

// Per-query I/O accounting must stay exact under concurrency: every
// query reports into its own sink, so the per-query IOBytes of a
// parallel batch must sum exactly to the bytes the filesystem returned,
// and results must match the sequential run. Run under -race in CI.

func concurrencyQueries(t *testing.T, c *corpus.Corpus, n, vocab int) [][]uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	var queries [][]uint32
	for tries := 0; len(queries) < n && tries < 100*n; tries++ {
		if q, _, _, ok := corpus.PlantQuery(c, 12, 0.15, vocab, rng); ok {
			queries = append(queries, q)
		}
	}
	if len(queries) < n {
		t.Fatalf("planted only %d of %d queries", len(queries), n)
	}
	return queries
}

func TestSearchBatchConcurrentStatsExact(t *testing.T) {
	c := smallDupCorpus(40, 40, 120, 40, 7)
	// Tiny zones and a small cutoff so the parallel run exercises both
	// full list reads and zone-map probes.
	ix, counted := buildCountedIndex(t, c, 8, 21, 5, 4, 12)
	s := New(ix, c)
	queries := concurrencyQueries(t, c, 24, 40)
	opts := Options{Theta: 0.6, PrefixFilter: true}

	seq := s.SearchBatch(queries, opts, 1)

	const workers = 8
	before := counted.Bytes()
	par := s.SearchBatch(queries, opts, workers)
	returned := counted.Bytes() - before

	var sumBytes int64
	for i, res := range par {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		if !reflect.DeepEqual(res.Matches, seq[i].Matches) {
			t.Fatalf("query %d: parallel matches differ\npar %+v\nseq %+v", i, res.Matches, seq[i].Matches)
		}
		if res.Stats.ShortLists != seq[i].Stats.ShortLists ||
			res.Stats.LongLists != seq[i].Stats.LongLists ||
			res.Stats.Candidates != seq[i].Stats.Candidates ||
			res.Stats.IOBytes != seq[i].Stats.IOBytes {
			t.Fatalf("query %d: parallel stats differ\npar %+v\nseq %+v", i, res.Stats, seq[i].Stats)
		}
		if st := res.Stats; st.IOBytes > 0 && (st.IOTime <= 0 || st.IOTime > st.Total) {
			t.Fatalf("query %d: read %d bytes in IOTime %v, want within (0, Total %v]", i, st.IOBytes, st.IOTime, st.Total)
		}
		sumBytes += res.Stats.IOBytes
	}
	if sumBytes != returned {
		t.Fatalf("per-query IOBytes sum %d, the filesystem returned %d", sumBytes, returned)
	}
	if sumBytes == 0 {
		t.Fatal("batch performed no I/O; the exactness assertion is vacuous")
	}
}

// TestSearchBatchConcurrentRepeat hammers the pooled query contexts:
// many rounds of concurrent batches must keep producing the sequential
// answer (a scratch-buffer aliasing bug would corrupt results
// nondeterministically).
func TestSearchBatchConcurrentRepeat(t *testing.T) {
	c := smallDupCorpus(25, 30, 80, 30, 11)
	ix := buildTestIndex(t, c, 8, 5, 5, 4, 10)
	s := New(ix, c)
	queries := concurrencyQueries(t, c, 16, 30)
	for _, opts := range []Options{
		{Theta: 0.5},
		{Theta: 0.5, PrefixFilter: true},
		{Theta: 0.5, PrefixFilter: true, Verify: true},
	} {
		seq := s.SearchBatch(queries, opts, 1)
		for round := 0; round < 4; round++ {
			par := s.SearchBatch(queries, opts, 8)
			for i := range par {
				if par[i].Err != nil {
					t.Fatalf("opts %+v round %d query %d: %v", opts, round, i, par[i].Err)
				}
				if !reflect.DeepEqual(par[i].Matches, seq[i].Matches) {
					t.Fatalf("opts %+v round %d query %d: matches diverged", opts, round, i)
				}
			}
		}
	}
}

// TestSearchStatsSelfConsistent: a lone query's sink must be charged
// the bytes the filesystem returned, its IOTime must lie within its
// Total, and CPUTime+IOTime must equal Total.
func TestSearchStatsSelfConsistent(t *testing.T) {
	c := smallDupCorpus(20, 30, 80, 30, 13)
	ix, counted := buildCountedIndex(t, c, 8, 9, 5, 0, 0)
	s := New(ix, c)
	q := c.Text(0)[:12]
	before := counted.Bytes()
	_, st, err := s.Search(q, Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if returned := counted.Bytes() - before; st.IOBytes != returned || returned == 0 {
		t.Fatalf("sink IOBytes %d, the filesystem returned %d", st.IOBytes, returned)
	}
	if st.IOTime <= 0 || st.IOTime > st.Total {
		t.Fatalf("sink IOTime %v outside (0, Total %v]", st.IOTime, st.Total)
	}
	if st.CPUTime+st.IOTime != st.Total {
		t.Fatalf("CPU %v + IO %v != Total %v", st.CPUTime, st.IOTime, st.Total)
	}
}

func TestSearchBatchOrderAndParallel(t *testing.T) {
	c := smallDupCorpus(20, 20, 60, 30, 131)
	ix := buildTestIndex(t, c, 8, 47, 5, 0, 0)
	s := New(ix, c)
	rng := rand.New(rand.NewSource(15))
	var queries [][]uint32
	for len(queries) < 12 {
		if q, _, _, ok := corpus.PlantQuery(c, 10, 0.1, 30, rng); ok {
			queries = append(queries, q)
		}
	}
	seq := s.SearchBatch(queries, Options{Theta: 0.6}, 1)
	par := s.SearchBatch(queries, Options{Theta: 0.6}, 4)
	if len(seq) != len(queries) || len(par) != len(queries) {
		t.Fatal("result count mismatch")
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("errors: %v %v", seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(matchesToSpans(seq[i].Matches), matchesToSpans(par[i].Matches)) {
			t.Fatalf("query %d: parallel result differs", i)
		}
	}
	// Errors propagate per query.
	bad := s.SearchBatch([][]uint32{nil, queries[0]}, Options{Theta: 0.6}, 2)
	if bad[0].Err == nil {
		t.Fatal("empty query should error")
	}
	if bad[1].Err != nil {
		t.Fatalf("valid query errored: %v", bad[1].Err)
	}
}

func TestSearchBatchEmpty(t *testing.T) {
	c := smallDupCorpus(5, 20, 40, 30, 7)
	ix := buildTestIndex(t, c, 4, 49, 5, 0, 0)
	s := New(ix, c)
	if got := s.SearchBatch(nil, Options{Theta: 0.5}, 4); len(got) != 0 {
		t.Fatalf("empty batch: %v", got)
	}
}
