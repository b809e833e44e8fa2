package core

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
)

func testCorpus() *corpus.Corpus {
	return corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 150,
		ZipfS: 1.3, Seed: 17, DupRate: 0.3, DupSnippetLen: 24, DupMutateProb: 0,
	})
}

func TestEngineBuildOpenSearch(t *testing.T) {
	c := testCorpus()
	dir := filepath.Join(t.TempDir(), "nested", "idx") // MkdirAll path
	stats, err := BuildIndex(c, dir, index.BuildOptions{K: 16, Seed: 7, T: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows == 0 {
		t.Fatal("no windows built")
	}
	e, err := Open(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Index().Meta().K != 16 {
		t.Fatalf("meta K = %d", e.Index().Meta().K)
	}
	if e.Searcher() == nil {
		t.Fatal("nil searcher")
	}

	rng := rand.New(rand.NewSource(3))
	q, srcID, srcStart, ok := corpus.PlantQuery(c, 15, 0, 150, rng)
	if !ok {
		t.Fatal("plant failed")
	}
	matches, st, err := e.Search(q, search.Options{Theta: 0.9, PrefixFilter: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 16 {
		t.Fatalf("stats K = %d", st.K)
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

func TestEngineExternalBuild(t *testing.T) {
	c := testCorpus()
	dir := t.TempDir()
	corpusPath := filepath.Join(dir, "c.tok")
	if err := corpus.WriteFile(c, corpusPath); err != nil {
		t.Fatal(err)
	}
	idxDir := filepath.Join(dir, "idx")
	stats, err := BuildIndexExternal(corpusPath, idxDir, index.BuildOptions{
		K: 8, Seed: 9, T: 10, MemoryBudget: 10 << 10, // several batches
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows == 0 {
		t.Fatal("no windows built")
	}
	e, err := Open(idxDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Verify without a source must fail cleanly through the engine too.
	q := c.Text(0)[:15]
	if _, _, err := e.Search(q, search.Options{Theta: 0.9, Verify: true}); err == nil {
		t.Fatal("Verify without source should fail")
	}
	matches, _, err := e.Search(q, search.Options{Theta: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("self-query found nothing")
	}
}

// TestFailedBuildLeavesNoDir: the builders create the index directory
// only by committing it, so a build that fails on a fresh path leaves
// nothing there for Open to mistake for an index.
func TestFailedBuildLeavesNoDir(t *testing.T) {
	c := testCorpus()
	corpusPath := filepath.Join(t.TempDir(), "c.tok")
	if err := corpus.WriteFile(c, corpusPath); err != nil {
		t.Fatal(err)
	}
	bad := index.BuildOptions{K: 0, T: 10}
	builds := map[string]func(dir string) error{
		"BuildIndex": func(dir string) error {
			_, err := BuildIndex(c, dir, bad)
			return err
		},
		"BuildIndexExternal": func(dir string) error {
			_, err := BuildIndexExternal(corpusPath, dir, bad)
			return err
		},
	}
	for name, build := range builds {
		dir := filepath.Join(t.TempDir(), "idx")
		if build(dir) == nil {
			t.Fatalf("%s: a K=0 build succeeded", name)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: the failed build left %s behind (stat: %v)", name, dir, err)
		}
	}
}

func TestEngineOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("missing dir should fail")
	}
	if _, err := BuildIndexExternal(filepath.Join(t.TempDir(), "missing.tok"), t.TempDir(), index.BuildOptions{K: 1, T: 5}); err == nil {
		t.Fatal("missing corpus should fail")
	}
}
