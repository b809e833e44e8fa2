package index

import (
	"cmp"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
	"ndss/internal/hash"
)

// TestBuildParallelismSameBytes: the worker count decides who generates
// a function, never what is written — 1, 2 and 7 workers (more than
// K/2 of K=12, more than all of K=2) produce identical inverted files.
func TestBuildParallelismSameBytes(t *testing.T) {
	c := testCorpus(t, 50, 30, 100, 300, 23)
	for _, k := range []int{12, 2} {
		var want string
		for _, p := range []int{1, 2, 7} {
			dir := filepath.Join(t.TempDir(), "ix")
			if _, err := Build(c, dir, BuildOptions{K: k, Seed: 5, T: 10, Parallelism: p}); err != nil {
				t.Fatal(err)
			}
			got := strings.Join(hashInvertedFiles(t, nil, "ix", dir), "\n")
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("K=%d Parallelism=%d: files differ from Parallelism=1:\n%s\nwant:\n%s", k, p, got, want)
			}
		}
	}
}

// TestGroupByHashEqualsSort: on generator output the grouping is the
// sort by (Hash, TextID, L) it replaced — also when one hash holds
// every record, when every record has its own hash, and into output
// and scratch buffers left over from a larger input.
func TestGroupByHashEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fam, err := hash.NewFamily(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	oneToken := make([][]uint32, 6)
	distinct := make([][]uint32, 6)
	next := uint32(0)
	for i := range oneToken {
		oneToken[i] = make([]uint32, 20+rng.Intn(40))
		distinct[i] = make([]uint32, len(oneToken[i]))
		for j := range oneToken[i] {
			oneToken[i][j] = 7
			distinct[i][j] = next
			next++
		}
	}
	spare := grouped{ps: make([]Posting, 5000), runs: make([]run, 5000)}
	var tmp []record
	for _, tc := range []struct {
		name   string
		c      *corpus.Corpus
		hashes func(records int) int // distinct hashes the fixture must have; nil: any
	}{
		{"zipf", testCorpus(t, 40, 30, 140, 60, 101), nil},
		{"one hash", corpus.New(oneToken), func(int) int { return 1 }},
		{"all hashes", corpus.New(distinct), func(n int) int { return n }},
		{"empty", corpus.New(nil), func(int) int { return 0 }},
	} {
		rg := recordGen{f: fam.Func(0), t: 4}
		var gen []record
		for id := 0; id < tc.c.NumTexts(); id++ {
			gen = rg.appendText(gen, uint32(id), tc.c.Text(uint32(id)))
		}
		want := slices.Clone(gen)
		slices.SortFunc(want, func(a, b record) int {
			return cmp.Or(cmp.Compare(a.Hash, b.Hash),
				cmp.Compare(a.Posting.TextID, b.Posting.TextID), cmp.Compare(a.Posting.L, b.Posting.L))
		})
		for _, out := range []grouped{{}, spare} {
			out, tmp = groupByHash(slices.Clone(gen), out, tmp)
			checkGrouped(t, tc.name, out, want)
		}
		runs := len(slices.CompactFunc(want, func(a, b record) bool { return a.Hash == b.Hash }))
		if tc.hashes != nil && runs != tc.hashes(len(gen)) {
			t.Errorf("%s: fixture has %d distinct hashes over %d records", tc.name, runs, len(gen))
		}
	}
}

// checkGrouped fails t unless g holds the records of want, which is
// sorted by hash, as postings in want's order and one run per hash.
func checkGrouped(t testing.TB, name string, g grouped, want []record) {
	t.Helper()
	if len(g.ps) != len(want) {
		t.Fatalf("%s: %d postings grouped from %d records", name, len(g.ps), len(want))
	}
	r := 0
	for i, rec := range want {
		if g.ps[i] != rec.Posting {
			t.Fatalf("%s: posting %d is %v, want %v", name, i, g.ps[i], rec.Posting)
		}
		if r == len(g.runs) || g.runs[r].hash != rec.Hash {
			t.Fatalf("%s: posting %d (hash %x) outside a run of its hash", name, i, rec.Hash)
		}
		if last := i+1 == len(want) || want[i+1].Hash != rec.Hash; last != (g.runs[r].end == i+1) {
			t.Fatalf("%s: run %d of hash %x ends at %d, its last posting is %d", name, r, rec.Hash, g.runs[r].end, i)
		} else if last {
			r++
		}
	}
	if r != len(g.runs) {
		t.Fatalf("%s: %d runs for %d hashes", name, len(g.runs), r)
	}
}

// TestWriterRejectsUnorderedList: the grouping keeps generation order,
// which is (TextID, L) order only because of how the generator emits;
// a list that reaches the writer out of that order, or with a repeated
// key, must fail the build.
func TestWriterRejectsUnorderedList(t *testing.T) {
	for name, ps := range map[string][]Posting{
		"text ids descend": {{TextID: 2, L: 0, C: 1, R: 9}, {TextID: 1, L: 0, C: 1, R: 9}},
		"L descends":       {{TextID: 1, L: 5, C: 6, R: 9}, {TextID: 1, L: 0, C: 1, R: 4}},
		"repeated":         {{TextID: 1, L: 0, C: 1, R: 9}, {TextID: 1, L: 0, C: 2, R: 9}},
	} {
		w := newTestWriter(t)
		if err := w.addList(5, ps); err == nil {
			t.Errorf("%s: out-of-order list accepted", name)
		}
		w.abort()
	}
}

// TestBuildWriteFaultStopsWorkers fails one write in the middle of a
// build that has more workers than cores busy generating ahead of the
// writer: Build must return that error, wait its workers out (the
// goroutine count is back before it returns — internal/leakcheck would
// only see them after the whole suite), and leave neither dir nor a
// staging directory behind.
func TestBuildWriteFaultStopsWorkers(t *testing.T) {
	c := testCorpus(t, 60, 30, 100, 300, 23)
	opts := BuildOptions{K: 8, Seed: 5, T: 10, Parallelism: 3}
	counter := fsio.NewFaultFS(fsio.OS)
	opts.FS = counter
	if _, err := Build(c, filepath.Join(t.TempDir(), "ix"), opts); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()

	errDisk := errors.New("disk gone")
	for _, n := range []int{total / 4, total / 2} {
		parent := t.TempDir()
		dir := filepath.Join(parent, "ix")
		before := runtime.NumGoroutine()
		opts.FS = fsio.NewFaultFS(fsio.OS).SetCrash(false).SetErr(errDisk).FailAt(n)
		_, err := Build(c, dir, opts)
		if !errors.Is(err, errDisk) {
			t.Fatalf("op %d: Build returned %v, want the injected write error", n, err)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("op %d: %d goroutines after Build returned, %d before", n, after, before)
		}
		if entries, _ := os.ReadDir(parent); len(entries) != 0 {
			t.Errorf("op %d: failed build left %v behind", n, entries)
		}
	}
}
