package search

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/index"
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
	// Default path: no detailed spans copied out.
	if st.Spans != nil {
		t.Fatalf("Spans attached without Options.Trace: %d spans", len(st.Spans))
	}
}

// checkStageSpans asserts that a traced query's spans hold exactly one
// span per stage, each as long as its StageTimes field and laid end to
// end, and no span negative; it returns the count of spans per name.
func checkStageSpans(t *testing.T, st *Stats) map[string]int {
	t.Helper()
	if st.Spans == nil {
		t.Fatal("Options.Trace set but no spans attached")
	}
	seen := map[string]int{}
	stage := map[string]int{}
	for i, name := range StageNames {
		stage[name] = i
	}
	d := st.StageTimes.Durations()
	var at time.Duration
	for i := range st.Spans {
		sp := &st.Spans[i]
		seen[sp.Name]++
		if sp.Dur < 0 {
			t.Errorf("span %s has negative duration %v", sp.Name, sp.Dur)
		}
		if j, ok := stage[sp.Name]; ok {
			if sp.Dur != d[j] || sp.Start != at {
				t.Errorf("%s span at %v for %v, want at %v for its StageTimes %v", sp.Name, sp.Start, sp.Dur, at, d[j])
			}
			at += d[j]
		}
	}
	for _, name := range StageNames {
		if seen[name] != 1 {
			t.Errorf("%d %s spans in trace, want 1: %v", seen[name], name, seen)
		}
	}
	return seen
}

// stageSum is the sum of a query's stage times.
func stageSum(st *Stats) time.Duration {
	var sum time.Duration
	for _, v := range st.StageTimes.Durations() {
		sum += v
	}
	return sum
}

func TestStageTimesTraceSpans(t *testing.T) {
	s, q := stageFixture(t)
	// The fixture's tiny cutoff forces deferred lists, so probe spans
	// appear.
	_, st, err := s.Search(q, Options{Theta: 0.5, PrefixFilter: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := checkStageSpans(t, st)
	if st.LongLists > 0 && st.Probed > 0 {
		if seen["probe"] == 0 {
			t.Errorf("deferred probes ran (%d texts, %d long lists) but no probe span", st.Probed, st.LongLists)
		}
		// Probe spans carry the function and text attributes.
		for i := range st.Spans {
			if st.Spans[i].Name != "probe" {
				continue
			}
			if _, ok := st.Spans[i].Attr("fn"); !ok {
				t.Errorf("probe span missing fn attribute")
			}
			break
		}
	}
	if got := stageSum(st); got > st.Total {
		t.Fatalf("stage sum %v exceeds total %v", got, st.Total)
	}
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
// more candidate texts than a traced query keeps probe spans: the stage
// clock is not bounded by any span cap, untraced or traced.
func TestStageTimesPastSpanCap(t *testing.T) {
	const texts = 600
	c, run := plantedRunCorpus(texts, 40)
	s := New(buildTestIndex(t, c, 16, 52, 20, 0, 0), c)
	for _, traced := range []bool{false, true} {
		ms, st, err := s.Search(run, Options{Theta: 0.8, Verify: true, Trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != texts {
			t.Fatalf("traced=%v: %d matches, want one in each of the %d texts", traced, len(ms), texts)
		}
		if st.StageTimes.Verify <= 0 || st.StageTimes.Merge <= 0 {
			t.Errorf("traced=%v: %d matches verified, but Verify %v, Merge %v",
				traced, len(ms), st.StageTimes.Verify, st.StageTimes.Merge)
		}
		if got := stageSum(st); got > st.Total {
			t.Errorf("traced=%v: stage sum %v exceeds total %v", traced, got, st.Total)
		}
		if traced {
			checkStageSpans(t, st)
		} else if st.Spans != nil {
			t.Errorf("untraced query carries %d spans", len(st.Spans))
		}
	}
}

// TestProbeSpanCap runs a traced query whose deferred-list probes
// outnumber maxProbeSpans on a multi-segment index: it keeps at most the
// cap of probe spans, and still carries its six stage spans and its
// segment_io spans.
func TestProbeSpanCap(t *testing.T) {
	c, run := plantedRunCorpus(600, 40)
	dir := filepath.Join(t.TempDir(), "ix")
	parts := splitCorpus(c, 300, 150, 150)
	// stageFixture's zone step and low cutoff: every list of the run is
	// long, so every candidate text is probed in beta-1 lists.
	if _, err := index.Build(parts[0], dir, index.BuildOptions{K: 16, Seed: 52, T: 20, ZoneMapStep: 4, LongListCutoff: 8}); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts[1:] {
		if _, err := index.Append(dir, p); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	_, st, err := New(ix, c).Search(run, Options{Theta: 0.5, PrefixFilter: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if probes := st.Probed * st.LongLists; probes <= maxProbeSpans {
		t.Fatalf("query probed %d texts in %d long lists: %d probes, not past the cap of %d",
			st.Probed, st.LongLists, probes, maxProbeSpans)
	}
	seen := checkStageSpans(t, st)
	if seen["probe"] != maxProbeSpans {
		t.Errorf("%d probe spans, want the cap of %d", seen["probe"], maxProbeSpans)
	}
	if seen["segment_io"] != ix.SegmentCount() {
		t.Errorf("%d segment_io spans on a %d-segment index: %v", seen["segment_io"], ix.SegmentCount(), seen)
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
