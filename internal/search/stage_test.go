package search

import (
	"math/rand"
	"testing"
	"time"

	"ndss/internal/corpus"
)

// stageFixture builds a zone-mapped index with a low long-list cutoff
// so queries exercise both short-list gathers and deferred probes.
func stageFixture(t *testing.T) (*Searcher, []uint32) {
	t.Helper()
	c := smallDupCorpus(40, 40, 120, 40, 7)
	ix := buildTestIndex(t, c, 8, 21, 5, 4, 8)
	return New(ix, c), c.Text(0)[:12]
}

func TestStageTimesRecorded(t *testing.T) {
	s, q := stageFixture(t)
	_, st, err := s.Search(q, Options{Theta: 0.5, PrefixFilter: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	d := st.StageTimes.Durations()
	for i, name := range StageNames {
		if d[i] < 0 {
			t.Errorf("stage %s duration %v negative", name, d[i])
		}
	}
	if st.StageTimes.Sketch == 0 && st.StageTimes.Gather == 0 {
		t.Fatalf("no stage recorded any time: %+v", st.StageTimes)
	}
	// The decomposition must not exceed the measured total: stages are
	// disjoint regions of one query.
	if sum := stageSum(st); sum > st.Total {
		t.Fatalf("stage sum %v exceeds total %v", sum, st.Total)
	}
}

// stageSum is the sum of a query's stage times.
func stageSum(st *Stats) time.Duration {
	var sum time.Duration
	for _, v := range st.StageTimes.Durations() {
		sum += v
	}
	return sum
}

// plantedRunCorpus builds n texts of random tokens that all carry the
// same run of runLen tokens at a random offset, and returns it with the
// run.
func plantedRunCorpus(n, runLen int) (*corpus.Corpus, []uint32) {
	const vocab = 50000
	rng := rand.New(rand.NewSource(52))
	run := make([]uint32, runLen)
	for i := range run {
		run[i] = uint32(rng.Intn(vocab))
	}
	randomTokens := func(m int) []uint32 {
		ts := make([]uint32, m)
		for i := range ts {
			ts[i] = uint32(rng.Intn(vocab))
		}
		return ts
	}
	c := corpus.New(nil)
	for i := 0; i < n; i++ {
		text := append(randomTokens(10+rng.Intn(30)), run...)
		c.Append(append(text, randomTokens(10+rng.Intn(30))...))
	}
	return c, run
}

// TestStageTimesPastSpanCap holds every stage's time to a query with
// hundreds of candidate texts, past any count a per-probe record could
// afford: the stage clock laps at each count/merge hand-off however
// many texts reach merge, and the stages stay within the total.
func TestStageTimesPastSpanCap(t *testing.T) {
	const texts = 600
	c, run := plantedRunCorpus(texts, 40)
	s := New(buildTestIndex(t, c, 16, 52, 20, 0, 0), c)
	ms, st, err := s.Search(run, Options{Theta: 0.8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != texts {
		t.Fatalf("%d matches, want one in each of the %d texts", len(ms), texts)
	}
	if st.StageTimes.Verify <= 0 || st.StageTimes.Merge <= 0 {
		t.Errorf("%d matches verified, but Verify %v, Merge %v", len(ms), st.StageTimes.Verify, st.StageTimes.Merge)
	}
	if got := stageSum(st); got > st.Total {
		t.Errorf("stage sum %v exceeds total %v", got, st.Total)
	}
}

func TestBatchStageTimes(t *testing.T) {
	s, q := stageFixture(t)
	queries := [][]uint32{q, q, {0}} // last one likely matches nothing but still runs
	results := s.SearchBatch(queries, Options{Theta: 0.5, PrefixFilter: true}, 2)
	total, n := BatchStageTimes(results)
	if n != 3 {
		t.Fatalf("aggregated %d queries, want 3 (errors: %v %v %v)",
			n, results[0].Err, results[1].Err, results[2].Err)
	}
	var want StageTimes
	for _, r := range results {
		want = want.Add(r.Stats.StageTimes)
	}
	if total != want {
		t.Fatalf("BatchStageTimes %+v != manual sum %+v", total, want)
	}
}

func TestStageTimesAdd(t *testing.T) {
	a := StageTimes{Sketch: 1, Plan: 2, Gather: 3, Count: 4, Merge: 5, Verify: 6}
	b := StageTimes{Sketch: 10, Plan: 20, Gather: 30, Count: 40, Merge: 50, Verify: 60}
	got := a.Add(b)
	want := StageTimes{Sketch: 11, Plan: 22, Gather: 33, Count: 44, Merge: 55, Verify: 66}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if got.Durations() != [NumStages]time.Duration{11, 22, 33, 44, 55, 66} {
		t.Fatalf("Durations = %v", got.Durations())
	}
}
