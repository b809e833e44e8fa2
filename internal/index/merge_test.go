package index

import (
	"bytes"
	"encoding/binary"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
)

func TestMergeShardsValidation(t *testing.T) {
	if err := MergeShards(nil, nil, t.TempDir()); err == nil {
		t.Fatal("empty shard list should fail")
	}
	c := testCorpus(t, 10, 30, 60, 100, 83)
	a := t.TempDir()
	if _, err := Build(c, a, BuildOptions{K: 2, Seed: 1, T: 5}); err != nil {
		t.Fatal(err)
	}
	b := t.TempDir()
	if _, err := Build(c, b, BuildOptions{K: 2, Seed: 2, T: 5}); err != nil {
		t.Fatal(err)
	}
	// Mismatched seeds must be rejected.
	if err := MergeShards([]string{a, b}, []uint32{0, 10}, t.TempDir()); err == nil {
		t.Fatal("mismatched shard seeds should fail")
	}
	// Offsets length mismatch.
	if err := MergeShards([]string{a}, []uint32{0, 1}, t.TempDir()); err == nil {
		t.Fatal("offset count mismatch should fail")
	}
	// Missing shard dir.
	if err := MergeShards([]string{filepath.Join(t.TempDir(), "nope")}, []uint32{0}, t.TempDir()); err == nil {
		t.Fatal("missing shard should fail")
	}
}

func TestMergeShardsOffsets(t *testing.T) {
	// Two shards with the same single text; offsets map them to ids 0
	// and 5.
	text := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	mk := func() string {
		dir := t.TempDir()
		if _, err := Build(corpus.New([][]uint32{text}), dir, BuildOptions{K: 1, Seed: 3, T: 5}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	out := t.TempDir()
	if err := MergeShards([]string{mk(), mk()}, []uint32{0, 5}, out); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ids := map[uint32]bool{}
	for _, h := range ix.Hashes(0) {
		ps, err := ix.ReadListInto(nil, 0, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ps); i++ {
			if ps[i].TextID < ps[i-1].TextID {
				t.Fatal("merged list not sorted by text id")
			}
		}
		for _, p := range ps {
			ids[p.TextID] = true
		}
	}
	if !ids[0] || !ids[5] || len(ids) != 2 {
		t.Fatalf("merged text ids = %v", ids)
	}
}

// readCountFS counts the ReadAt calls made on the files it opens, the
// files it opens and reads whole, and the handles it hands out that are
// still open, and logs where every ReadAt went.
type readCountFS struct {
	fsio.FS
	reads, open, opened, readFiles atomic.Int64
	bytes                          atomic.Int64 // returned by ReadAt

	mu  sync.Mutex
	log []readAt // guarded by mu
}

// readAt is one logged ReadAt: the file, the offset it started at and
// the bytes it asked for.
type readAt struct {
	path string
	off  int64
	n    int
}

func (c *readCountFS) Open(name string) (fsio.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	c.opened.Add(1)
	return &readCountFile{File: f, fs: c}, nil
}

func (c *readCountFS) ReadFile(name string) ([]byte, error) {
	c.readFiles.Add(1)
	return c.FS.ReadFile(name)
}

// readLog returns the logged reads in call order.
func (c *readCountFS) readLog() []readAt {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.log)
}

type readCountFile struct {
	fsio.File
	fs *readCountFS
}

func (f *readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	f.fs.mu.Lock()
	f.fs.log = append(f.fs.log, readAt{f.Name(), off, len(p)})
	f.fs.mu.Unlock()
	n, err := f.File.ReadAt(p, off)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *readCountFile) Close() error {
	f.fs.open.Add(-1)
	return f.File.Close()
}

// TestCompactReadBudget pins the streamed merge's reads: compacting a
// nine-segment set reads each function's hash-ordered region front to
// back in windows of at most mergeWindow bytes — ceil(region/window)
// reads a function on top of what Open reads — never one read per
// (list, segment). Open's share (header, footer, directories and zone
// tables of each segment file) is counted by opening the same fixture
// alone.
func TestCompactReadBudget(t *testing.T) {
	opts := BuildOptions{K: 4, Seed: 17, T: 10, ZoneMapStep: 8, LongListCutoff: 24}
	parts := []*corpus.Corpus{testCorpus(t, 40, 30, 140, 60, 7)}
	for seg := 0; seg < 8; seg++ {
		parts = append(parts, testCorpus(t, 4, 30, 140, 60, int64(20+seg)))
	}
	dir := buildSegmented(t, opts, parts...)
	if err := Delete(dir, []uint32{3, 41}); err != nil {
		t.Fatal(err)
	}
	opened := &readCountFS{FS: fsio.OS}
	ix, err := OpenFS(opened, dir)
	if err != nil {
		t.Fatal(err)
	}
	openReads := opened.reads.Load()
	funcs, budget, lists := 0, int64(0), 0
	for _, seg := range ix.segs {
		for _, ff := range seg.funcs {
			funcs++
			budget += (int64(ff.dirOff-ff.region) + mergeWindow - 1) / mergeWindow
			lists += len(ff.hashes)
		}
	}
	ix.Close()
	if funcs != 9*opts.K {
		t.Fatalf("fixture has %d functions, want %d", funcs, 9*opts.K)
	}

	fsys := &readCountFS{FS: fsio.OS}
	if err := compactFS(fsys, dir); err != nil {
		t.Fatal(err)
	}
	if openReads <= int64(9*(2+2*opts.K)) {
		t.Fatalf("Open issued %d reads for 9 segment files: the fixture has no zone tables to read", openReads)
	}
	merged := fsys.reads.Load() - openReads
	if merged > budget {
		t.Fatalf("compaction issued %d reads beyond Open's, budget %d (%d lists over %d functions)", merged, budget, lists, funcs)
	}
	if merged < int64(funcs) {
		t.Fatalf("compaction issued %d reads beyond Open's for %d functions: the count misses reads", merged, funcs)
	}
}

// batchCountFS counts the batch indexes BuildExternal stages through
// it: each is staged in a directory made under the build's "batches"
// workspace.
type batchCountFS struct {
	fsio.FS
	n atomic.Int64
}

func (b *batchCountFS) MkdirTemp(dir, pattern string) (string, error) {
	if filepath.Base(dir) == "batches" {
		b.n.Add(1)
	}
	return b.FS.MkdirTemp(dir, pattern)
}

// assertHashOrder fails unless every function of every segment file
// under dir lays its lists out back to back, from where the previous
// function's directory ends to its own directory, in strictly ascending
// hash order, none empty, each zone entry holding the text id of the
// posting it marks — walked from the raw directory columns — and Open
// accepts the index.
func assertHashOrder(t *testing.T, label, dir string) {
	t.Helper()
	files := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !segmentFileName.MatchString(d.Name()) {
			return err
		}
		files++
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		funcs := rawSegment(t, data)
		for fn, f := range funcs {
			if f.starts[0] != 0 {
				t.Fatalf("%s: %s function %d: first list starts at posting %d", label, path, fn, f.starts[0])
			}
			pos := f.region
			for i, r := range f.rows() {
				if i > 0 && r.hash <= f.hashes[i-1] || r.count == 0 {
					t.Fatalf("%s: %s function %d row %d (hash %x, %d postings) breaks hash order", label, path, fn, i, r.hash, r.count)
				}
				zones := r.off + uint64(r.count)*postingSize
				for z := uint64(0); z < uint64(r.zoneCount); z++ {
					if got, want := binary.LittleEndian.Uint32(data[zones+z*zoneEntrySize:]), decodePosting(data[r.off+z*uint64(f.zoneStep)*postingSize:]).TextID; got != want {
						t.Fatalf("%s: %s function %d row %d zone %d: text id %d, posting has %d", label, path, fn, i, z, got, want)
					}
				}
				pos = zones + uint64(r.zoneCount)*zoneEntrySize
			}
			if pos != f.dirOff {
				t.Fatalf("%s: %s function %d: lists end at %d, directory at %d", label, path, fn, pos, f.dirOff)
			}
		}
		last := funcs[len(funcs)-1]
		if end := int64(last.dirOff + last.dirLen()); end != int64(len(data))-footerLen(len(funcs)) {
			t.Fatalf("%s: %s: functions end at %d, footer at %d", label, path, end, int64(len(data))-footerLen(len(funcs)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("%s: no segment files under %s", label, dir)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: Open refused the output: %v", label, err)
	}
	ix.Close()
}

// TestEveryWriterEmitsHashOrder runs every writer over the golden corpus
// — Build, BuildExternal under a budget of several batches, Append
// (with a delete) and Compact — and checks that each output lays its
// lists out in hash order and opens. BuildExternal's segment file must
// be byte-identical to Build's.
func TestEveryWriterEmitsHashOrder(t *testing.T) {
	c := goldenCorpus(t)
	opts := BuildOptions{K: 3, Seed: 11, T: 12, ZoneMapStep: 8, LongListCutoff: 24}

	buildDir := filepath.Join(t.TempDir(), "ix")
	if _, err := Build(c, buildDir, opts); err != nil {
		t.Fatal(err)
	}
	assertHashOrder(t, "build", buildDir)

	batches := &batchCountFS{FS: fsio.OS}
	extOpts := goldenExternalOpts(opts)
	extOpts.FS = batches
	extDir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildExternal(corpusReader(t, c), extDir, extOpts); err != nil {
		t.Fatal(err)
	}
	if batches.n.Load() < 2 {
		t.Fatalf("the external build built %d batch indexes, want at least 2", batches.n.Load())
	}
	assertHashOrder(t, "external", extDir)
	want, err := os.ReadFile(filepath.Join(buildDir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(extDir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BuildExternal's segment file differs from Build's")
	}

	segDir := buildSegmented(t, opts, testCorpus(t, 30, 30, 140, 60, 7), testCorpus(t, 9, 30, 140, 60, 9))
	if err := Delete(segDir, []uint32{5, 33}); err != nil {
		t.Fatal(err)
	}
	assertHashOrder(t, "appended", segDir)
	if err := Compact(segDir); err != nil {
		t.Fatal(err)
	}
	assertHashOrder(t, "compacted", segDir)
}
