package index

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ndss/internal/fsio"
)

// Open shares the segment files other open Index values of the process
// hold (segFile, openFiles). These tests pin what a shared open reads,
// that it answers as a fresh one does, that it refuses or reopens
// whatever changed on disk exactly as a fresh one does, and that the
// last Close releases the handle.

var sharedOpts = BuildOptions{K: 3, Seed: 13, T: 5, ZoneMapStep: 4, LongListCutoff: 8}

// sharedFixture builds a base plus two appended segments.
func sharedFixture(t *testing.T) string {
	t.Helper()
	return buildSegmented(t, sharedOpts, testCorpus(t, 30, 40, 120, 50, 11), testCorpus(t, 6, 40, 120, 50, 12), testCorpus(t, 5, 40, 120, 50, 13))
}

// registered counts the segment files in dir held open, and those of
// them that are shareable.
func registered(dir string) (open, shareable int) {
	openFiles.mu.Lock()
	defer openFiles.mu.Unlock()
	for sf := range openFiles.refs {
		if filepath.Dir(sf.path) == dir {
			open++
		}
	}
	for key := range openFiles.byKey {
		if filepath.Dir(key.path) == dir {
			shareable++
		}
	}
	return open, shareable
}

// readsBeyondFooters returns the reads in log that are not a whole
// footer of one of ix's segment files.
func readsBeyondFooters(ix *Index, log []readAt) []readAt {
	footers := make(map[string]int64, len(ix.segs))
	for _, seg := range ix.segs {
		footers[seg.path] = seg.size - footerLen(seg.meta.K)
	}
	var out []readAt
	for _, r := range log {
		if at, ok := footers[r.path]; !ok || r.off != at || int64(r.n) != footerLen(ix.K()) {
			out = append(out, r)
		}
	}
	return out
}

// TestSharedSegmentSecondOpen: a second Open of an open directory opens
// no segment file and reads nothing of them but their footers, shares
// the first Index's files, and answers identically.
func TestSharedSegmentSecondOpen(t *testing.T) {
	dir := sharedFixture(t)
	counted := &readCountFS{FS: fsio.OS}
	a, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	logged, opened, files := len(counted.readLog()), counted.opened.Load(), counted.readFiles.Load()
	b, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if n := counted.opened.Load() - opened; n != 0 {
		t.Fatalf("second Open opened %d segment files, want 0", n)
	}
	if n := counted.readFiles.Load() - files; n != 1 {
		t.Fatalf("second Open read %d files whole, want 1 (the manifest)", n)
	}
	reads := counted.readLog()[logged:]
	if extra := readsBeyondFooters(b, reads); len(extra) != 0 || len(reads) != len(b.segs) {
		t.Fatalf("second Open made %d reads, %v beyond the %d footers", len(reads), extra, len(b.segs))
	}
	for i := range a.segs {
		if a.segs[i].segFile != b.segs[i].segFile {
			t.Fatalf("segment %d: second Open loaded its own file", i)
		}
	}
	if fmt.Sprint(a.Segments()) != fmt.Sprint(b.Segments()) || a.BuildID() != b.BuildID() {
		t.Fatalf("segments %v (build %s) vs %v (build %s)", a.Segments(), a.BuildID(), b.Segments(), b.BuildID())
	}
	assertSameLists(t, allLists(t, a), allLists(t, b))
}

// TestSharedSegmentClose: closing either of two Index values sharing
// their files leaves the other serving, and the last Close releases
// every handle.
func TestSharedSegmentClose(t *testing.T) {
	dir := sharedFixture(t)
	for _, firstClosed := range []int{0, 1} {
		t.Run(fmt.Sprint("close ", firstClosed, " first"), func(t *testing.T) {
			counted := &readCountFS{FS: fsio.OS}
			var ixs [2]*Index
			for i := range ixs {
				ix, err := OpenFS(counted, dir)
				if err != nil {
					t.Fatal(err)
				}
				ixs[i] = ix
			}
			want := allLists(t, ixs[0])
			if err := ixs[firstClosed].Close(); err != nil {
				t.Fatal(err)
			}
			other := ixs[1-firstClosed]
			if n := counted.open.Load(); n != int64(len(other.segs)) {
				t.Fatalf("after the first Close %d handles are open, want %d", n, len(other.segs))
			}
			assertSameLists(t, want, allLists(t, other))
			if err := other.Close(); err != nil {
				t.Fatal(err)
			}
			if n := counted.open.Load(); n != 0 {
				t.Fatalf("the last Close left %d handles open", n)
			}
			if open, shareable := registered(dir); open != 0 || shareable != 0 {
				t.Fatalf("the last Close left %d files registered, %d shareable", open, shareable)
			}
		})
	}
}

// TestSharedSegmentReopenAfterAppend: the reopen after an append, the
// old Index still open, opens only the new segment file and reads only
// it, the manifest and the old segments' footers — and answers as a
// fresh Open does.
func TestSharedSegmentReopenAfterAppend(t *testing.T) {
	dir := sharedFixture(t)
	counted := &readCountFS{FS: fsio.OS}
	old, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	before := allLists(t, old)
	if _, err := Append(dir, testCorpus(t, 4, 40, 120, 50, 14)); err != nil {
		t.Fatal(err)
	}
	logged, opened, files := len(counted.readLog()), counted.opened.Load(), counted.readFiles.Load()
	ix, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if n := counted.opened.Load() - opened; n != 1 {
		t.Fatalf("reopen opened %d segment files, want 1", n)
	}
	if n := counted.readFiles.Load() - files; n != 1 {
		t.Fatalf("reopen read %d files whole, want 1 (the manifest)", n)
	}
	newSeg := ix.segs[len(ix.segs)-1]
	reads := counted.readLog()[logged:]
	for _, r := range readsBeyondFooters(old, reads) {
		if r.path != newSeg.path {
			t.Fatalf("reopen read %s @%d (%d bytes): neither the new segment nor a footer", r.path, r.off, r.n)
		}
	}
	fresh, err := Open(dir) // another FS: nothing is shared
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	assertSameLists(t, allLists(t, fresh), allLists(t, ix))
	assertSameLists(t, before, allLists(t, old))
}

// TestSharedSegmentChangedFile: a segment file deleted, replaced,
// resized or with its footer changed while an Index holds it is refused
// with the error a fresh Open gives, or opened afresh; it is never
// served from the held views.
func TestSharedSegmentChangedFile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(t *testing.T, path string, size int64)
	}{
		{"deleted", func(t *testing.T, path string, _ int64) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"replaced", func(t *testing.T, path string, _ int64) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tmp := path + ".new"
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(tmp, path); err != nil {
				t.Fatal(err)
			}
		}},
		{"grown", func(t *testing.T, path string, _ int64) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0}); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, path string, size int64) {
			if err := os.Truncate(path, size-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"footer checksum", func(t *testing.T, path string, size int64) { flipByteAt(t, path, size-1) }},
		{"footer row", func(t *testing.T, path string, size int64) { flipByteAt(t, path, size-footerLen(sharedOpts.K)+1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := sharedFixture(t)
			counted := &readCountFS{FS: fsio.OS}
			holder, err := OpenFS(counted, dir)
			if err != nil {
				t.Fatal(err)
			}
			want := allLists(t, holder)
			held := holder.segs[1]
			tc.change(t, held.path, held.size)

			opened := counted.opened.Load()
			shared, sharedErr := OpenFS(counted, dir)
			if sharedErr == nil {
				if shared.segs[1].segFile == held.segFile || counted.opened.Load()-opened != 1 {
					t.Fatal("the changed file was served from the held views")
				}
				assertSameLists(t, want, allLists(t, shared))
				shared.Close()
			}
			assertSameLists(t, want, allLists(t, holder))
			holder.Close()
			fresh, freshErr := OpenFS(counted, dir)
			if freshErr == nil {
				fresh.Close()
			}
			if fmt.Sprint(sharedErr) != fmt.Sprint(freshErr) {
				t.Fatalf("Open beside a holder returned %v, a fresh Open %v", sharedErr, freshErr)
			}
			if tc.name != "replaced" && sharedErr == nil {
				t.Fatal("Open served a damaged segment file")
			}
			if n := counted.open.Load(); n != 0 {
				t.Fatalf("%d handles left open", n)
			}
		})
	}
}

// TestSharedSegmentCompaction: a compaction under an open Index gives a
// new Open the merged file, while the old Index keeps serving the old
// set, and both answer alike.
func TestSharedSegmentCompaction(t *testing.T) {
	dir := sharedFixture(t)
	if err := Delete(dir, []uint32{3, 33}); err != nil {
		t.Fatal(err)
	}
	counted := &readCountFS{FS: fsio.OS}
	old, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := allLists(t, old)
	if err := compactFS(counted, dir); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	if ix.SegmentCount() != 1 || ix.segs[0].segFile == old.segs[0].segFile {
		t.Fatalf("Open after compaction serves %d segments, sharing the old base: %v", ix.SegmentCount(), ix.segs[0].segFile == old.segs[0].segFile)
	}
	assertSameLists(t, want, allLists(t, ix))
	assertSameLists(t, want, allLists(t, old))
	old.Close()
	assertSameLists(t, want, allLists(t, ix))
	ix.Close()
	if n := counted.open.Load(); n != 0 {
		t.Fatalf("%d handles left open", n)
	}
}

// sliceFS is an FS whose values cannot key a map: Open must work
// through it, sharing nothing.
type sliceFS struct {
	fsio.FS
	tags []string
}

func TestSharedSegmentUncomparableFS(t *testing.T) {
	dir := sharedFixture(t)
	var ixs []*Index
	for range 2 {
		ix, err := OpenFS(sliceFS{FS: fsio.OS}, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		ixs = append(ixs, ix)
	}
	if open, shareable := registered(dir); ixs[0].segs[0].segFile == ixs[1].segs[0].segFile || shareable != 0 || open != 2*len(ixs[0].segs) {
		t.Fatalf("an FS that cannot key a map shared a segment file (%d open, %d shareable)", open, shareable)
	}
	assertSameLists(t, allLists(t, ixs[0]), allLists(t, ixs[1]))
}

// TestSharedSegmentConcurrentOpenClose opens, reads and closes the same
// directory from several goroutines while one Index stays open, then
// checks every handle is released: run under -race (make
// fault-injection) it also checks the registry's locking.
func TestSharedSegmentConcurrentOpenClose(t *testing.T) {
	dir := sharedFixture(t)
	counted := &readCountFS{FS: fsio.OS}
	keeper, err := OpenFS(counted, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := allLists(t, keeper)
	const workers, rounds = 4, 25
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ix, err := OpenFS(counted, dir)
				if err != nil {
					errs <- err
					return
				}
				for fn, lists := range want {
					for h, ps := range lists {
						got, err := ix.ReadListInto(nil, fn, h, nil)
						if err == nil && fmt.Sprint(got) != fmt.Sprint(ps) {
							err = fmt.Errorf("fn %d list %x: %v, want %v", fn, h, got, ps)
						}
						if err != nil {
							ix.Close()
							errs <- err
							return
						}
					}
				}
				if err := ix.Close(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertSameLists(t, want, allLists(t, keeper))
	keeper.Close()
	if open, shareable := registered(dir); counted.open.Load() != 0 || open != 0 || shareable != 0 {
		t.Fatalf("%d handles open, %d files registered (%d shareable) after every Close", counted.open.Load(), open, shareable)
	}
}
