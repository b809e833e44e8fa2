package search

import (
	"math/rand"
	"reflect"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/index"
)

// TestSearcherOverMemIndex: the query processor must behave identically
// over the in-memory and on-disk index implementations.
func TestSearcherOverMemIndex(t *testing.T) {
	c := smallDupCorpus(20, 20, 60, 30, 171)
	opts := index.BuildOptions{K: 8, Seed: 51, T: 5, LongListCutoff: 6}
	disk := buildTestIndex(t, c, 8, 51, 5, 0, 6)
	mem, err := index.BuildMem(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	sDisk := New(disk, c)
	sMem := New(mem, c)
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 10; trial++ {
		q, _, _, ok := corpus.PlantQuery(c, 12, 0.15, 30, rng)
		if !ok {
			continue
		}
		theta := []float64{0.5, 0.75, 1.0}[trial%3]
		for _, o := range []Options{
			{Theta: theta},
			{Theta: theta, PrefixFilter: true},
		} {
			a, _, err := sDisk.Search(q, o)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := sMem.Search(q, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(matchesToSpans(a), matchesToSpans(b)) {
				t.Fatalf("trial %d opts %+v: disk and mem search differ\ndisk %v\nmem  %v",
					trial, o, matchesToSpans(a), matchesToSpans(b))
			}
		}
	}
	// Mem search performs no I/O.
	q := c.Text(0)[:10]
	_, st, err := sMem.Search(q, Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.IOBytes != 0 || st.IOTime != 0 {
		t.Fatalf("mem search reported I/O: %+v", st)
	}
}
