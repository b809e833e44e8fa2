package search

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"ndss/internal/index"
)

// ctxRun is what one query on a context produced, less its times.
type ctxRun struct {
	matches               []Match
	shortLists, longLists int
	candidates, probed    int
	rects                 int
	ioBytes               int64
}

// runOnCtx runs one query's sketch → plan → gather → count stages on qc,
// which it readies first.
func runOnCtx(t *testing.T, s *Searcher, qc *queryCtx, query []uint32, opts Options) ctxRun {
	t.Helper()
	meta := s.ix.Meta()
	minLen, err := opts.validate(meta, s.src != nil)
	if err != nil {
		t.Fatal(err)
	}
	beta := requiredCollisions(meta.K, opts.Theta)
	st := &Stats{K: meta.K, Beta: beta}
	qc.begin(context.Background(), opts, minLen, beta, st)
	if err := s.stageSketch(qc, query); err != nil {
		t.Fatal(err)
	}
	s.stagePlan(qc)
	if err := s.stageGather(qc); err != nil {
		t.Fatal(err)
	}
	ms, err := s.stageCount(qc)
	if err != nil {
		t.Fatal(err)
	}
	return ctxRun{matches: ms, shortLists: st.ShortLists, longLists: st.LongLists,
		candidates: st.Candidates, probed: st.Probed, rects: st.Rects, ioBytes: qc.io.BytesRead}
}

// TestQueryCtxAlternatesSegmentSets: query contexts are shared by every
// Searcher, so one context must serve a 9-segment index and a 1-segment
// one in turn — prefix-filtered or not — and give
// each query exactly what a brand-new context gives it.
func TestQueryCtxAlternatesSegmentSets(t *testing.T) {
	const k, seed, tt = 16, 9, 5
	full := smallDupCorpus(45, 30, 120, 60, 41)
	opts := index.BuildOptions{K: k, Seed: seed, T: tt, ZoneMapStep: 4, LongListCutoff: 12}

	one := filepath.Join(t.TempDir(), "one")
	if _, err := index.Build(full, one, opts); err != nil {
		t.Fatal(err)
	}
	nine := filepath.Join(t.TempDir(), "nine")
	parts := splitCorpus(full, 13, 4, 4, 4, 4, 4, 4, 4, 4)
	if _, err := index.Build(parts[0], nine, opts); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts[1:] {
		if _, err := index.Append(nine, p); err != nil {
			t.Fatal(err)
		}
	}
	var searchers []*Searcher
	for _, dir := range []string{nine, one} {
		ix, err := index.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		searchers = append(searchers, New(ix, nil))
	}
	if n := searchers[0].ix.(*index.Index).SegmentCount(); n != 9 {
		t.Fatalf("fixture has %d segments, want 9", n)
	}

	var queries [][]uint32
	for id := uint32(0); id < uint32(full.NumTexts()); id += 4 {
		text := full.Text(id)
		queries = append(queries, text[:min(len(text), 40)])
	}
	optSet := []Options{
		{Theta: 0.5, KeepRects: true},
		{Theta: 0.7, PrefixFilter: true, KeepRects: true},
		{Theta: 0.6, PrefixFilter: true},
	}
	shared := &queryCtx{}
	matched := 0
	for round := 0; round < 2; round++ {
		for qi, q := range queries {
			for _, o := range optSet {
				for si, s := range searchers {
					want := runOnCtx(t, s, &queryCtx{}, q, o)
					got := runOnCtx(t, s, shared, q, o)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d query %d %+v on searcher %d: shared context gave %+v, a new one %+v",
							round, qi, o, si, got, want)
					}
					matched += len(got.matches)
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("degenerate fixture: no query matched")
	}
}
