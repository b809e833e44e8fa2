package search

import (
	"math"
	"strings"
	"testing"

	"ndss/internal/corpus"
)

// Option validation must reject bad configurations before any list I/O
// happens (opts.validate).

func TestOptionsValidation(t *testing.T) {
	c := smallDupCorpus(8, 20, 40, 25, 31)
	ix, counted := buildCountedIndex(t, c, 4, 1, 5, 0, 0)
	withSrc := New(ix, c)
	noSrc := New(ix, nil)
	q := c.Text(0)[:10]

	cases := []struct {
		name string
		s    *Searcher
		opts Options
		want string
	}{
		{"theta zero", withSrc, Options{Theta: 0}, "Theta"},
		{"theta negative", withSrc, Options{Theta: -0.5}, "Theta"},
		{"theta above one", withSrc, Options{Theta: 1.5}, "Theta"},
		// NaN fails every comparison; accepted, it floored beta to 1 and
		// made every single-collision rectangle a match.
		{"theta NaN", withSrc, Options{Theta: math.NaN()}, "Theta"},
		{"negative MinLength", withSrc, Options{Theta: 0.8, MinLength: -1}, "MinLength"},
		{"negative Limit", withSrc, Options{Theta: 0.8, Limit: -1}, "Limit"},
		{"MinLength below T", withSrc, Options{Theta: 0.8, MinLength: 3}, "length threshold"},
		{"verify without source", noSrc, Options{Theta: 0.8, Verify: true}, "TextSource"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := counted.Total()
			_, _, err := tc.s.Search(q, tc.opts)
			if err == nil {
				t.Fatalf("opts %+v accepted", tc.opts)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if reads := counted.Total() - before; reads != 0 {
				t.Fatalf("rejected query made %d reads", reads)
			}
		})
	}

	// Verify with no matches and no source must also be rejected (the
	// old implementation only failed once a match needed verification).
	if _, _, err := noSrc.Search([]uint32{9999, 9998, 9997, 9996, 9995}, Options{Theta: 1.0, Verify: true}); err == nil {
		t.Fatal("Verify without TextSource accepted for a no-match query")
	}
}

func TestOptionsValidEdge(t *testing.T) {
	c := smallDupCorpus(8, 20, 40, 25, 32)
	ix := buildTestIndex(t, c, 4, 1, 5, 0, 0)
	s := New(ix, c)
	q := c.Text(0)[:10]
	// Theta exactly 1 and MinLength exactly T are the boundary legals.
	if _, _, err := s.Search(q, Options{Theta: 1, MinLength: 5}); err != nil {
		t.Fatalf("boundary options rejected: %v", err)
	}
}

func TestExplainPlan(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 30, MinLength: 40, MaxLength: 90, VocabSize: 20,
		ZipfS: 1.4, Seed: 12, DupRate: 0.5, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	ix, counted := buildCountedIndex(t, c, 8, 3, 5, 0, 10)
	s := New(ix, c)
	q := c.Text(0)[:12]

	plan, err := s.Explain(q, Options{Theta: 0.5, PrefixFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Long) != 8 {
		t.Fatalf("plan covers %d lists, want 8", len(plan.Long))
	}
	numLong := 0
	for _, l := range plan.Long {
		if l {
			numLong++
		}
	}
	if numLong != plan.NumLong {
		t.Fatalf("NumLong %d, counted %d", plan.NumLong, numLong)
	}
	if plan.NumLong > plan.Beta-1 {
		t.Fatalf("deferred %d lists with beta %d", plan.NumLong, plan.Beta)
	}
	if plan.Alpha != max(1, plan.Beta-plan.NumLong) {
		t.Fatalf("Alpha %d inconsistent with Beta %d, NumLong %d", plan.Alpha, plan.Beta, plan.NumLong)
	}
	if plan.Cutoff != 10 {
		t.Fatalf("Cutoff %d, want the build cutoff 10", plan.Cutoff)
	}
	if plan.NumLong == 0 {
		t.Fatal("plan defers nothing; the assertions above are vacuous")
	}

	// The plan stage reads no posting lists.
	before := counted.Total()
	if _, err := s.Explain(q, Options{Theta: 0.5, PrefixFilter: true}); err != nil {
		t.Fatal(err)
	}
	if reads := counted.Total() - before; reads != 0 {
		t.Fatalf("Explain made %d reads", reads)
	}

	// Without prefix filtering nothing is deferred.
	plain, err := s.Explain(q, Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumLong != 0 || plain.Alpha != plain.Beta {
		t.Fatalf("plain plan defers: %+v", plain)
	}
}
