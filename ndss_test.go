package ndss

import (
	"math/rand"
	"path/filepath"
	"testing"

	"ndss/internal/corpus"
)

func publicFixture(t *testing.T) ([][]uint32, string) {
	t.Helper()
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 30, MinLength: 40, MaxLength: 100, VocabSize: 100,
		ZipfS: 1.3, Seed: 3, DupRate: 0.4, DupSnippetLen: 24, DupMutateProb: 0.05,
	})
	texts := make([][]uint32, c.NumTexts())
	for i := range texts {
		texts[i] = c.Text(uint32(i))
	}
	dir := t.TempDir()
	if _, err := BuildIndex(texts, dir, BuildOptions{K: 16, Seed: 11, T: 10}); err != nil {
		t.Fatal(err)
	}
	return texts, dir
}

func TestPublicAPIEndToEnd(t *testing.T) {
	texts, dir := publicFixture(t)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 16 || st.T != 10 || st.NumTexts != 30 || st.Windows <= 0 || st.SizeOnDisk <= 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Query with a verbatim slice of text 5.
	q := texts[5][10:30]
	matches, qs, err := db.Search(q, SearchOptions{Theta: 0.9, PrefixFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Beta != 15 { // ceil(16*0.9)
		t.Fatalf("Beta = %d", qs.Beta)
	}
	found := false
	for _, m := range matches {
		if m.TextID == 5 && m.Start <= 10 && m.End >= 29 {
			found = true
		}
	}
	if !found {
		t.Fatalf("verbatim slice not found: %+v", matches)
	}

	// Verify requires attached texts.
	if _, _, err := db.Search(q, SearchOptions{Theta: 0.9, Verify: true}); err == nil {
		t.Fatal("Verify without attachment should fail")
	}
	if err := db.AttachTexts(texts); err != nil {
		t.Fatal(err)
	}
	matches, _, err = db.Search(q, SearchOptions{Theta: 0.9, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	// Verification computes Jaccard over the merged span, which may be
	// wider than the verbatim region — it must be positive and bounded.
	for _, m := range matches {
		if m.Jaccard <= 0 || m.Jaccard > 1 {
			t.Fatalf("verified Jaccard %v out of range", m.Jaccard)
		}
	}
}

func TestPublicAPIFileWorkflow(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 25, MinLength: 40, MaxLength: 90, VocabSize: 80,
		ZipfS: 1.3, Seed: 8, DupRate: 0.3, DupSnippetLen: 20, DupMutateProb: 0,
	})
	texts := make([][]uint32, c.NumTexts())
	for i := range texts {
		texts[i] = c.Text(uint32(i))
	}
	dir := t.TempDir()
	corpusPath := filepath.Join(dir, "corpus.tok")
	if err := WriteCorpusFile(texts, corpusPath); err != nil {
		t.Fatal(err)
	}
	idxDir := filepath.Join(dir, "idx")
	if _, err := BuildIndexFromFile(corpusPath, idxDir, BuildOptions{
		K: 8, Seed: 2, T: 8, MemoryBudget: 16 << 10, // several batches
	}); err != nil {
		t.Fatal(err)
	}
	db, err := Open(idxDir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AttachCorpusFile(corpusPath); err != nil {
		t.Fatal(err)
	}
	// An unmutated planted query collides on every min-hash, so finding
	// it is guaranteed (Theorem 2), not probabilistic.
	rng := rand.New(rand.NewSource(1))
	q, srcID, srcStart, ok := corpus.PlantQuery(c, 16, 0, 80, rng)
	if !ok {
		t.Fatal("plant failed")
	}
	matches, _, err := db.Search(q, SearchOptions{Theta: 0.7, PrefixFilter: true, Verify: true})
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
		t.Fatalf("planted near-duplicate at text %d pos %d not found: %+v", srcID, srcStart, matches)
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing index should fail to open")
	}
}
