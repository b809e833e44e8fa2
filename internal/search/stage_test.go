package search

import (
	"testing"
	"time"
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
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	if sum > st.Total {
		t.Fatalf("stage sum %v exceeds total %v", sum, st.Total)
	}
	// Default path: no detailed spans copied out.
	if st.Spans != nil {
		t.Fatalf("Spans attached without Options.Trace: %d spans", len(st.Spans))
	}
}

func TestStageTimesTraceSpans(t *testing.T) {
	s, q := stageFixture(t)
	// The fixture's tiny cutoff forces deferred lists, so probe spans
	// appear.
	_, st, err := s.Search(q, Options{Theta: 0.5, PrefixFilter: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans == nil {
		t.Fatal("Options.Trace set but no spans attached")
	}
	seen := map[string]int{}
	for i := range st.Spans {
		seen[st.Spans[i].Name]++
		if st.Spans[i].Dur < 0 {
			t.Errorf("span %s left open", st.Spans[i].Name)
		}
	}
	for _, name := range StageNames {
		if name == "merge" || name == "verify" {
			continue // merge/verify spans appear only when there is work
		}
		if seen[name] == 0 {
			t.Errorf("no %s span in trace: %v", name, seen)
		}
	}
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
	if st.Matches > 0 && seen["merge"] == 0 {
		t.Errorf("query matched but no merge span: %v", seen)
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
