package search

import (
	"path/filepath"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/index"
)

// The planner must never defer a list whose probe would read a long
// portion whole: that is any list some segment holds a long portion of
// without a zone map, and probing one degrades to a full read plus
// filter per candidate, worse than reading the list once. On one segment
// every list above the build-time LongListCutoff has a zone map, so only
// a segmented index can produce such a list: one longer than the cutoff
// in total while no segment's portion is. The other segmented half of
// the rule — a zone-mapped base beside small appended portions stays
// deferrable — is TestHasZoneMap's and TestSegmentedDeferralExact's.

func zonemapTestCorpus() *corpus.Corpus {
	return corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 60, MinLength: 40, MaxLength: 90, VocabSize: 15,
		ZipfS: 1.5, Seed: 21, DupRate: 0.6, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
}

func TestPlanNeverDefersZoneMapLessLists(t *testing.T) {
	c := zonemapTestCorpus()
	dir := filepath.Join(t.TempDir(), "ix")
	parts := splitCorpus(c, 30, 30)
	if _, err := index.Build(parts[0], dir, index.BuildOptions{
		K: 8, Seed: 33, T: 5, ZoneMapStep: 4, LongListCutoff: 40,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := index.Append(dir, parts[1]); err != nil {
		t.Fatal(err)
	}
	segmented, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer segmented.Close()
	// The twin holds the same lists on one segment, where each list above
	// the cutoff has a zone map: its plan is the segmented one without
	// the zone-map demotion.
	twinDir := filepath.Join(t.TempDir(), "ix")
	if _, err := index.Build(c, twinDir, index.BuildOptions{
		K: 8, Seed: 33, T: 5, ZoneMapStep: 4, LongListCutoff: 40,
	}); err != nil {
		t.Fatal(err)
	}
	twin, err := index.Open(twinDir)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	sSeg, sTwin := New(segmented, c), New(twin, c)
	opts := Options{Theta: 1, PrefixFilter: true}
	demoted := 0
	for id := 0; id < c.NumTexts(); id++ {
		q := c.Text(uint32(id))[:12]
		sketch, err := segmented.Family().Sketch(q)
		if err != nil {
			t.Fatal(err)
		}
		segPlan, err := sSeg.Explain(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		twinPlan, err := sTwin.Explain(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for fn, long := range segPlan.Long {
			zoned := segmented.HasZoneMap(fn, sketch[fn])
			if long && !zoned {
				t.Fatalf("query %d: deferred list %d (%d postings) has no probeable zone map", id, fn, segmented.ListLength(fn, sketch[fn]))
			}
			if twinPlan.Long[fn] && !zoned {
				demoted++
			}
		}

		// Deferral is a performance decision, never a correctness one.
		ms, _, err := sSeg.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		mt, _, err := sTwin.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(mt) {
			t.Fatalf("query %d: segmented and single-segment indexes disagree: %d vs %d matches", id, len(ms), len(mt))
		}
		for i := range ms {
			if ms[i].TextID != mt[i].TextID || ms[i].Start != mt[i].Start || ms[i].End != mt[i].End {
				t.Fatalf("query %d: match %d differs: %+v vs %+v", id, i, ms[i], mt[i])
			}
		}
	}
	// Unless the twin defers some list the segmented index cannot probe,
	// the assertions above are vacuous.
	if demoted == 0 {
		t.Fatal("fixture demotes no list: no list passes the cutoff without a zone map")
	}
}

// MemIndex probes are in-memory binary searches, so every list above
// the cutoff stays deferrable there.
func TestMemIndexPlanStillDefers(t *testing.T) {
	c := zonemapTestCorpus()
	mem, err := index.BuildMem(c, index.BuildOptions{K: 8, Seed: 33, T: 5, LongListCutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	q := c.Text(0)[:12]
	s := New(mem, nil)
	plan, err := s.Explain(q, Options{Theta: 0.5, PrefixFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumLong == 0 {
		t.Fatal("MemIndex plan defers nothing (zone-map demotion over-applied)")
	}
}
