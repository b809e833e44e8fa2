package index

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
	"ndss/internal/hash"
	"ndss/internal/window"
)

func testCorpus(t testing.TB, numTexts, minLen, maxLen, vocab int, seed int64) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Synthesize(corpus.SynthConfig{
		NumTexts:      numTexts,
		MinLength:     minLen,
		MaxLength:     maxLen,
		VocabSize:     vocab,
		ZipfS:         1.2,
		Seed:          seed,
		DupRate:       0.2,
		DupSnippetLen: 32,
		DupMutateProb: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildIndex(t *testing.T, c *corpus.Corpus, opts BuildOptions) (*Index, *BuildStats) {
	t.Helper()
	dir := t.TempDir()
	stats, err := Build(c, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, stats
}

// corpusReader writes c to a corpus file and opens it for streaming.
func corpusReader(t *testing.T, c *corpus.Corpus) *corpus.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.tok")
	if err := corpus.WriteFile(c, path); err != nil {
		t.Fatal(err)
	}
	r, err := corpus.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestBuildOptionsValidation(t *testing.T) {
	c := corpus.New([][]uint32{{1, 2, 3}})
	dir := t.TempDir()
	if _, err := Build(c, dir, BuildOptions{K: 0, T: 5}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := Build(c, dir, BuildOptions{K: 1, T: 0}); err == nil {
		t.Error("T=0 should fail")
	}
	if _, err := Build(c, dir, BuildOptions{K: 1, T: 5, ZoneMapStep: -1}); err == nil {
		t.Error("negative ZoneMapStep should fail")
	}
}

// TestBuildMatchesDirectGeneration verifies every compact window of every
// text lands in exactly the right inverted list.
func TestBuildMatchesDirectGeneration(t *testing.T) {
	c := testCorpus(t, 40, 30, 120, 500, 3)
	opts := BuildOptions{K: 4, Seed: 99, T: 10}
	ix, stats := buildIndex(t, c, opts)

	fam := hash.MustNewFamily(4, 99)
	var wantWindows int64
	for fn := 0; fn < 4; fn++ {
		// Recompute all windows and group by hash.
		want := map[uint64][]Posting{}
		for id := 0; id < c.NumTexts(); id++ {
			tokens := c.Text(uint32(id))
			vals := window.Hashes(tokens, fam.Func(fn), nil)
			for _, w := range window.GenerateSegmentTree(vals, opts.T, nil) {
				h := vals[w.C]
				want[h] = append(want[h], Posting{
					TextID: uint32(id), L: uint32(w.L), C: uint32(w.C), R: uint32(w.R),
				})
			}
		}
		for h, wantList := range want {
			wantWindows += int64(len(wantList))
			got, err := ix.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			sortPostings(wantList)
			sortPostings(got)
			if !reflect.DeepEqual(got, wantList) {
				t.Fatalf("fn %d hash %x: got %v, want %v", fn, h, got, wantList)
			}
		}
		if n := len(ix.Hashes(fn)); n != len(want) {
			t.Fatalf("fn %d: %d lists, want %d", fn, n, len(want))
		}
	}
	if stats.Windows != wantWindows {
		t.Fatalf("stats.Windows = %d, want %d", stats.Windows, wantWindows)
	}
	if ix.TotalPostings() != wantWindows {
		t.Fatalf("TotalPostings = %d, want %d", ix.TotalPostings(), wantWindows)
	}
}

func sortPostings(ps []Posting) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].TextID != ps[j].TextID {
			return ps[i].TextID < ps[j].TextID
		}
		return ps[i].L < ps[j].L
	})
}

func TestPostingsSortedByTextID(t *testing.T) {
	c := testCorpus(t, 60, 30, 100, 200, 5)
	ix, _ := buildIndex(t, c, BuildOptions{K: 2, Seed: 7, T: 8})
	for fn := 0; fn < 2; fn++ {
		for _, h := range ix.Hashes(fn) {
			ps, err := ix.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(ps); i++ {
				if ps[i].TextID < ps[i-1].TextID {
					t.Fatalf("fn %d hash %x: postings not sorted by text id", fn, h)
				}
			}
		}
	}
}

func TestReadListMissingHash(t *testing.T) {
	c := testCorpus(t, 10, 30, 60, 100, 1)
	ix, _ := buildIndex(t, c, BuildOptions{K: 1, Seed: 1, T: 10})
	ps, err := ix.ReadListInto(nil, 0, 0xdeadbeef12345, nil)
	if err != nil || ps != nil {
		t.Fatalf("missing hash: ps=%v err=%v", ps, err)
	}
	if n := rowsOf(ix, 0xdeadbeef12345).Len(0); n != 0 {
		t.Fatalf("ListLength of missing hash = %d", n)
	}
}

// TestZoneMapProbe forces tiny zone parameters so every list has a zone
// map and verifies per-text probes equal filtered full reads.
func TestZoneMapProbe(t *testing.T) {
	c := testCorpus(t, 80, 40, 150, 50, 11) // tiny vocab -> long lists
	opts := BuildOptions{K: 2, Seed: 13, T: 5, ZoneMapStep: 4, LongListCutoff: 8}
	ix, _ := buildIndex(t, c, opts)
	rng := rand.New(rand.NewSource(2))
	for fn := 0; fn < 2; fn++ {
		hashes := ix.Hashes(fn)
		for _, h := range hashes {
			full, err := ix.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Probe a few existing and some absent text ids.
			ids := map[uint32]bool{}
			for i := 0; i < 5 && i < len(full); i++ {
				ids[full[rng.Intn(len(full))].TextID] = true
			}
			ids[0] = true
			ids[79] = true
			ids[1000] = true // absent entirely
			for id := range ids {
				got, err := probeText(ix, nil, fn, h, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				var want []Posting
				for _, p := range full {
					if p.TextID == id {
						want = append(want, p)
					}
				}
				sortPostings(got)
				sortPostings(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fn %d hash %x text %d: got %v, want %v", fn, h, id, got, want)
				}
			}
		}
	}
}

func TestZoneMapReducesIO(t *testing.T) {
	c := testCorpus(t, 200, 60, 150, 20, 17) // very small vocab -> very long lists
	opts := BuildOptions{K: 1, Seed: 3, T: 5, ZoneMapStep: 16, LongListCutoff: 64}
	ix, _ := buildIndex(t, c, opts)
	// Find the longest list.
	var bestHash uint64
	bestLen := 0
	for _, h := range ix.Hashes(0) {
		if n := rowsOf(ix, h).Len(0); n > bestLen {
			bestLen, bestHash = n, h
		}
	}
	if bestLen <= opts.LongListCutoff {
		t.Skipf("no long list produced (max %d)", bestLen)
	}
	var full, probe IOStats
	if _, err := ix.ReadListInto(nil, 0, bestHash, &full); err != nil {
		t.Fatal(err)
	}
	if _, err := probeText(ix, nil, 0, bestHash, 100, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.BytesRead >= full.BytesRead {
		t.Fatalf("zone probe read %d bytes, full read %d", probe.BytesRead, full.BytesRead)
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	c := testCorpus(t, 50, 30, 100, 300, 23)
	serial, _ := buildIndex(t, c, BuildOptions{K: 2, Seed: 5, T: 10, Parallelism: 1})
	parallel, _ := buildIndex(t, c, BuildOptions{K: 2, Seed: 5, T: 10, Parallelism: 4})
	assertIndexesEqual(t, serial, parallel)
}

func assertIndexesEqual(t *testing.T, a, b *Index) {
	t.Helper()
	if a.K() != b.K() {
		t.Fatalf("K mismatch: %d vs %d", a.K(), b.K())
	}
	for fn := 0; fn < a.K(); fn++ {
		ha, hb := a.Hashes(fn), b.Hashes(fn)
		if !reflect.DeepEqual(ha, hb) {
			t.Fatalf("fn %d: hash sets differ (%d vs %d lists)", fn, len(ha), len(hb))
		}
		for _, h := range ha {
			pa, err := a.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := b.ReadListInto(nil, fn, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			sortPostings(pa)
			sortPostings(pb)
			if !reflect.DeepEqual(pa, pb) {
				t.Fatalf("fn %d hash %x: lists differ", fn, h)
			}
		}
	}
}

// TestExternalBuildMatchesInMemory builds one corpus out of core under
// budgets that give one batch (built in place), two batches and one
// text per batch (merged), and checks each against Build.
func TestExternalBuildMatchesInMemory(t *testing.T) {
	c := testCorpus(t, 60, 30, 120, 400, 29)
	opts := BuildOptions{K: 3, Seed: 31, T: 10, Parallelism: 1}
	mem, _ := buildIndex(t, c, opts)
	r := corpusReader(t, c)
	for _, tc := range []struct {
		name        string
		budget      int64
		wantBatches int64 // batch indexes merged; 0 is an in-place build
	}{
		{"one batch", 0, 0},
		{"two batches", 76 << 10, 2},
		{"one text per batch", 1, int64(c.NumTexts())},
	} {
		batches := &batchCountFS{FS: fsio.OS}
		extOpts := opts
		extOpts.MemoryBudget, extOpts.FS = tc.budget, batches
		extDir := filepath.Join(t.TempDir(), "ix")
		stats, err := BuildExternal(r, extDir, extOpts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := batches.n.Load(); got != tc.wantBatches {
			t.Fatalf("%s: built %d batch indexes, want %d", tc.name, got, tc.wantBatches)
		}
		ext, err := Open(extDir)
		if err != nil {
			t.Fatal(err)
		}
		assertIndexesEqual(t, mem, ext)
		if err := ext.VerifyIntegrity(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats.Windows != mem.TotalPostings() {
			t.Fatalf("%s: stats.Windows = %d, want %d", tc.name, stats.Windows, mem.TotalPostings())
		}
		ext.Close()
		// Only the committed index remains: no batch workspace.
		entries, err := os.ReadDir(extDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Fatalf("%s: index dir holds %d entries, want the manifest and one segment: %v", tc.name, len(entries), entries)
		}
	}
}

func TestOpenRejectsBadDirs(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing dir should fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFileName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt manifest should fail")
	}
	man := newManifest(Meta{K: 1, T: 5}, segSum{size: 64})
	if err := writeManifest(fsio.OS, dir, man); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("missing segment file should fail")
	}
	// Garbage segment file.
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("garbage segment file should fail")
	}
}

func TestIndexMetaAndSize(t *testing.T) {
	c := testCorpus(t, 30, 30, 80, 200, 43)
	ix, stats := buildIndex(t, c, BuildOptions{K: 2, Seed: 47, T: 10})
	m := ix.Meta()
	if m.K != 2 || m.Seed != 47 || m.T != 10 || m.NumTexts != 30 {
		t.Fatalf("meta = %+v", m)
	}
	if m.TotalTokens != c.TotalTokens() {
		t.Fatalf("TotalTokens = %d, want %d", m.TotalTokens, c.TotalTokens())
	}
	size, err := ix.SizeOnDisk()
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 || size != stats.BytesWritten {
		t.Fatalf("SizeOnDisk = %d, stats.BytesWritten = %d", size, stats.BytesWritten)
	}
	if ix.Family().K() != 2 || ix.Family().Seed() != 47 {
		t.Fatal("family mismatch")
	}
}

// TestWindowCountScaling sanity-checks the Theorem 1 scaling through the
// builder: postings per function ~ 2*N/t.
func TestWindowCountScaling(t *testing.T) {
	c := testCorpus(t, 100, 200, 400, 5000, 51)
	n := float64(c.TotalTokens())
	for _, tt := range []int{25, 50, 100} {
		ix, _ := buildIndex(t, c, BuildOptions{K: 1, Seed: 1, T: tt})
		got := float64(ix.TotalPostings())
		want := 2 * n / float64(tt+1)
		// Duplicate tokens inflate the count somewhat (distinct-Jaccard
		// windows can repeat per occurrence); allow a generous band.
		if got < 0.5*want || got > 4*want {
			t.Errorf("t=%d: postings %v, expected around %v", tt, got, want)
		}
	}
}

func TestSkipsTooShortTexts(t *testing.T) {
	c := corpus.New([][]uint32{
		{1, 2, 3},                        // shorter than T: no windows
		{10, 11, 12, 13, 14, 15, 16, 17}, // indexed
	})
	ix, stats := buildIndex(t, c, BuildOptions{K: 1, Seed: 9, T: 5})
	if stats.Windows == 0 {
		t.Fatal("no windows at all")
	}
	for _, h := range ix.Hashes(0) {
		ps, _ := ix.ReadListInto(nil, 0, h, nil)
		for _, p := range ps {
			if p.TextID == 0 {
				t.Fatalf("short text was indexed: %v", p)
			}
		}
	}
}

// Hashes returns every min-hash value that has an inverted list in
// function fn, in ascending order, deduplicated across segments.
func (ix *Index) Hashes(fn int) []uint64 {
	if len(ix.segs) == 1 {
		return slices.Clone(ix.segs[0].funcs[fn].hashes)
	}
	var all []uint64
	for _, seg := range ix.segs {
		all = append(all, seg.funcs[fn].hashes...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}
