package ndss

import (
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/shard"
)

// *DB is the engine the server and the shards serve, and
// ingest-churn's auto-compaction reads its segment count.
var (
	_ shard.Backend                   = (*DB)(nil)
	_ interface{ SegmentCount() int } = (*DB)(nil)
)

// TestAttachKeepsOpenIndex: Attach swaps only the searcher. The build
// id and the cumulative I/O counters belong to the open index, so they
// survive it (a reopen would reset the counters), and the matches of a
// query do not change.
func TestAttachKeepsOpenIndex(t *testing.T) {
	texts, dir := publicFixture(t)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	q := texts[5][10:30]
	opts := SearchOptions{Theta: 0.9, PrefixFilter: true}
	before, _, err := db.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	build, io := db.BuildID(), db.IOStats()
	if io.BytesRead == 0 {
		t.Fatal("a search read no index bytes")
	}

	if err := db.AttachTexts(texts); err != nil {
		t.Fatal(err)
	}
	if got := db.BuildID(); got != build {
		t.Fatalf("build id %q after Attach, was %q", got, build)
	}
	if got := db.IOStats(); !reflect.DeepEqual(got, io) {
		t.Fatalf("I/O counters %+v after Attach, were %+v: the index was reopened", got, io)
	}
	after, _, err := db.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("matches changed across Attach:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, _, err := db.Search(q, SearchOptions{Theta: 0.9, Verify: true}); err != nil {
		t.Fatalf("Verify after Attach: %v", err)
	}
}

type closeCounter struct {
	*corpus.Corpus
	closed int
}

func (c *closeCounter) Close() error {
	c.closed++
	return nil
}

// TestDBOwnsSource: a later Attach closes the source it replaces, and
// Close closes the attached one, each exactly once.
func TestDBOwnsSource(t *testing.T) {
	texts, dir := publicFixture(t)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := &closeCounter{Corpus: corpus.New(texts)}
	second := &closeCounter{Corpus: corpus.New(texts)}
	if err := db.Attach(first); err != nil {
		t.Fatal(err)
	}
	if err := db.Attach(second); err != nil {
		t.Fatal(err)
	}
	if first.closed != 1 || second.closed != 0 {
		t.Fatalf("after the second Attach: first closed %d times, second %d; want 1, 0", first.closed, second.closed)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if first.closed != 1 || second.closed != 1 {
		t.Fatalf("after Close: first closed %d times, second %d; want 1, 1", first.closed, second.closed)
	}
}

// TestFailedBuildLeavesNoDir: the builders create the index directory
// only by committing it, so a build that fails on a fresh path leaves
// nothing there for Open to mistake for an index.
func TestFailedBuildLeavesNoDir(t *testing.T) {
	texts, _ := publicFixture(t)
	corpusPath := filepath.Join(t.TempDir(), "c.tok")
	if err := WriteCorpusFile(texts, corpusPath); err != nil {
		t.Fatal(err)
	}
	bad := BuildOptions{K: 0, T: 10}
	builds := map[string]func(dir string) error{
		"BuildIndex": func(dir string) error {
			_, err := BuildIndex(texts, dir, bad)
			return err
		},
		"BuildIndexFromFile": func(dir string) error {
			_, err := BuildIndexFromFile(corpusPath, dir, bad)
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

// TestNoImportOfInternalCore pins the layering: internal/core is only
// an alias of DB that the benchmark module compiles against, so no
// package of this module may import it.
func TestNoImportOfInternalCore(t *testing.T) {
	const core = "ndss/internal/core"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == "benchmark" || name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == core || strings.HasPrefix(p, core+"/") {
				t.Errorf("%s imports %s; use the root package ndss", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
