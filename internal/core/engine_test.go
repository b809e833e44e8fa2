package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"ndss"
	"ndss/internal/corpus"
	"ndss/internal/search"
)

// The benchmark module opens every engine through Open, so its contract
// is checked here: a nil source opens without one, a source is attached.

func TestEngineBuildOpenSearch(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 150,
		ZipfS: 1.3, Seed: 17, DupRate: 0.3, DupSnippetLen: 24, DupMutateProb: 0,
	})
	texts := make([][]uint32, c.NumTexts())
	for i := range texts {
		texts[i] = c.Text(uint32(i))
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if _, err := ndss.BuildIndex(texts, dir, ndss.BuildOptions{K: 16, Seed: 7, T: 10}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	q, srcID, srcStart, ok := corpus.PlantQuery(c, 15, 0, 150, rng)
	if !ok {
		t.Fatal("plant failed")
	}
	opts := search.Options{Theta: 0.9, PrefixFilter: true, Verify: true}

	bare, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, _, err := bare.Search(q, opts); err == nil {
		t.Fatal("Verify succeeded on an engine opened without a source")
	}

	e, err := Open(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	matches, _, err := e.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.TextID == srcID && m.Start <= srcStart && srcStart <= m.End {
			found = true
		}
	}
	if !found {
		t.Fatalf("verbatim plant not found: %+v", matches)
	}
}

func TestEngineOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("missing dir should fail")
	}
}
