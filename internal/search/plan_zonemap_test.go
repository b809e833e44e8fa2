package search

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/index"
)

// The planner must never defer a list whose probe would read a long
// portion whole: on one segment that is any list without a zone map, and
// probing one degrades to a full read plus filter per candidate, worse
// than reading the list once. Build-time LongListCutoff decides which
// lists get zone maps, so a query-time cutoff below it (or the cost
// model) can otherwise produce such plans. The segmented half of the
// rule — a zone-mapped base beside small appended portions stays
// deferrable — is TestHasZoneMap's and TestSegmentedDeferralExact's.

func zonemapTestCorpus() *corpus.Corpus {
	return corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 60, MinLength: 40, MaxLength: 90, VocabSize: 15,
		ZipfS: 1.5, Seed: 21, DupRate: 0.6, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
}

func buildZonemapIndex(t *testing.T, c *corpus.Corpus, longCutoff int) *index.Index {
	t.Helper()
	dir := t.TempDir()
	if _, err := index.Build(c, dir, index.BuildOptions{
		K: 8, Seed: 33, T: 5, ZoneMapStep: 4, LongListCutoff: longCutoff,
	}); err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func numLongOf(t *testing.T, ix IndexReader, q []uint32, opts Options) int {
	t.Helper()
	s := New(ix, nil)
	plan, err := s.Explain(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, l := range plan.Long {
		if l {
			n++
		}
	}
	if n != plan.NumLong {
		t.Fatalf("plan inconsistent: counted %d, NumLong %d", n, plan.NumLong)
	}
	return plan.NumLong
}

func TestPlanNeverDefersZoneMapLessLists(t *testing.T) {
	c := zonemapTestCorpus()
	// Cutoff so high no list gets a zone map at build time.
	bare := buildZonemapIndex(t, c, 1<<30)
	// Identical index, but with zone maps on every list over 8 postings.
	zoned := buildZonemapIndex(t, c, 8)
	q := c.Text(0)[:12]

	// The demotion runs after both planner paths (fixed cutoff and
	// ChooseDeferral) in stagePlan, so asserting through the cutoff
	// path — the only one the default cost model triggers at this
	// corpus size — covers both.
	opts := Options{Theta: 0.5, PrefixFilter: true, LongListThreshold: 10}
	// The zoned twin must defer under these options, otherwise the
	// assertion below is vacuous.
	if n := numLongOf(t, zoned, q, opts); n == 0 {
		t.Fatalf("opts %+v: fixture defers nothing even with zone maps", opts)
	}
	if n := numLongOf(t, bare, q, opts); n != 0 {
		t.Fatalf("opts %+v: deferred %d zone-map-less lists", opts, n)
	}
	if n := numLongOf(t, bare, q, Options{Theta: 0.5, CostBasedPrefix: true}); n != 0 {
		t.Fatalf("cost-based plan deferred %d zone-map-less lists", n)
	}

	// Results must agree between the twins (deferral is a performance
	// decision, never a correctness one).
	sBare, sZoned := New(bare, c), New(zoned, c)
	mb, _, err := sBare.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	mz, _, err := sZoned.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(mb) != len(mz) {
		t.Fatalf("twin indexes disagree: %d vs %d matches", len(mb), len(mz))
	}
	for i := range mb {
		if mb[i].TextID != mz[i].TextID || mb[i].Start != mz[i].Start || mb[i].End != mz[i].End {
			t.Fatalf("match %d differs: %+v vs %+v", i, mb[i], mz[i])
		}
	}
}

// MemIndex probes are in-memory binary searches, so deferral stays
// available there regardless of build cutoffs.
func TestMemIndexPlanStillDefers(t *testing.T) {
	c := zonemapTestCorpus()
	mem, err := index.BuildMem(c, index.BuildOptions{K: 8, Seed: 33, T: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := c.Text(0)[:12]
	s := New(mem, nil)
	plan, err := s.Explain(q, Options{Theta: 0.5, PrefixFilter: true, LongListThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumLong == 0 {
		t.Fatal("MemIndex plan defers nothing (zone-map demotion over-applied)")
	}
}

// TestDefaultDeferralMatchesTopTenPercent pins the default long-list
// cutoff: with LongListThreshold 0 the planner uses the index's
// build-time LongListCutoff. Wherever the top-10% quantile lies at or
// below that cutoff — every index this repository builds — both rules
// keep exactly the zone-mapped lists, at most beta-1, longest first, so
// the default plan must equal the explicit-quantile plan: on one
// segment, and on a base after each of eight appends.
func TestDefaultDeferralMatchesTopTenPercent(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 200, MinLength: 40, MaxLength: 200, VocabSize: 300,
		ZipfS: 1.2, Seed: 41, DupRate: 0.3, DupSnippetLen: 30, DupMutateProb: 0.05,
	})
	opts := index.BuildOptions{K: 16, Seed: 5, T: 8, ZoneMapStep: 8, LongListCutoff: 64}
	rng := rand.New(rand.NewSource(3))
	var queries [][]uint32
	for len(queries) < 1000 {
		text := c.Text(uint32(rng.Intn(c.NumTexts())))
		n := 12 + rng.Intn(40)
		if len(text) < n {
			continue
		}
		start := rng.Intn(len(text) - n + 1)
		queries = append(queries, text[start:start+n])
	}

	check := func(dir string) {
		t.Helper()
		ix, err := index.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		q10, cutoff := CutoffForTopFraction(ix, 0.10), ix.Meta().LongListCutoff
		if q10 > cutoff {
			t.Fatalf("%d segments: top-10%% quantile %d above the build cutoff %d", ix.SegmentCount(), q10, cutoff)
		}
		s := New(ix, nil)
		deferred := 0
		for _, q := range queries {
			for _, theta := range []float64{0.5, 0.8, 1} {
				def, err := s.Explain(q, Options{Theta: theta, PrefixFilter: true})
				if err != nil {
					t.Fatal(err)
				}
				top, err := s.Explain(q, Options{Theta: theta, PrefixFilter: true, LongListThreshold: q10})
				if err != nil {
					t.Fatal(err)
				}
				if def.Cutoff != cutoff {
					t.Fatalf("default plan cutoff %d, want the build cutoff %d", def.Cutoff, cutoff)
				}
				if !slices.Equal(def.Long, top.Long) || def.NumLong != top.NumLong || def.Alpha != top.Alpha || def.Beta != top.Beta {
					t.Fatalf("%d segments, theta %v, query %v: default plan %+v, top-10%% plan %+v",
						ix.SegmentCount(), theta, q, def, top)
				}
				if def.NumLong > 0 {
					deferred++
				}
			}
		}
		// Plans that defer nothing agree trivially; most must defer.
		if deferred < len(queries) {
			t.Fatalf("%d segments: only %d of %d plans defer a list", ix.SegmentCount(), deferred, 3*len(queries))
		}
	}

	single := filepath.Join(t.TempDir(), "ix")
	if _, err := index.Build(c, single, opts); err != nil {
		t.Fatal(err)
	}
	check(single)
	segmented := filepath.Join(t.TempDir(), "ix")
	parts := splitCorpus(c, 120, 10, 10, 10, 10, 10, 10, 10, 10)
	if _, err := index.Build(parts[0], segmented, opts); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts[1:] {
		if _, err := index.Append(segmented, p); err != nil {
			t.Fatal(err)
		}
		check(segmented)
	}
}
