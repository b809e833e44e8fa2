package index

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
)

// Crash-safety tests: a FaultFS kills the build at every single
// mutating filesystem operation in turn, and after each simulated crash
// the index directory must still open — as either exactly the previous
// index or a completely committed new one, never a mix of the two.

// fingerprint summarizes an opened index for equality checks across
// crash points.
type fingerprint struct {
	buildID  string
	numTexts int
	postings int64
}

func fingerprintOf(ix *Index) fingerprint {
	return fingerprint{
		buildID:  ix.BuildID(),
		numTexts: ix.Meta().NumTexts,
		postings: ix.TotalPostings(),
	}
}

// openAndFingerprint opens dir with the plain OS filesystem — as a
// fresh process after the crash would — and verifies its integrity.
func openAndFingerprint(t *testing.T, dir string) fingerprint {
	t.Helper()
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("index did not survive crash: %v", err)
	}
	defer ix.Close()
	if err := ix.VerifyIntegrity(); err != nil {
		t.Fatalf("index corrupt after crash: %v", err)
	}
	return fingerprintOf(ix)
}

// seedIndex builds the "previous" index at dir and returns its
// fingerprint. Parallelism 1 keeps later op counts deterministic.
func seedIndex(t *testing.T, dir string, c *corpus.Corpus, opts BuildOptions) fingerprint {
	t.Helper()
	opts.Parallelism = 1
	if _, err := Build(c, dir, opts); err != nil {
		t.Fatal(err)
	}
	return openAndFingerprint(t, dir)
}

// checkCrashInvariant verifies the post-crash state of dir: it opens
// cleanly and matches either the old fingerprint (build never
// committed) or a complete new build (crash after the commit rename).
func checkCrashInvariant(t *testing.T, dir string, opAt int, old fingerprint, newTexts int) {
	t.Helper()
	got := openAndFingerprint(t, dir)
	switch {
	case got == old:
		// Old index intact.
	case got.buildID != old.buildID && got.numTexts == newTexts:
		// Crash landed after the commit point; the new build is fully
		// visible, which is just as correct.
	default:
		t.Fatalf("crash at op %d left a mixed state: old %+v, got %+v", opAt, old, got)
	}
}

func TestBuildCrashLoop(t *testing.T) {
	oldCorpus := testCorpus(t, 12, 30, 60, 100, 7)
	newCorpus := testCorpus(t, 20, 30, 60, 100, 8)
	opts := BuildOptions{K: 2, Seed: 3, T: 10, Parallelism: 1}

	// Dry run against a seeded directory to learn the op count; the
	// commit dance differs when a previous index exists, so the dry run
	// must mirror the real one.
	dry := filepath.Join(t.TempDir(), "ix")
	seedIndex(t, dry, oldCorpus, opts)
	counter := fsio.NewFaultFS(fsio.OS)
	dryOpts := opts
	dryOpts.FS = counter
	if _, err := Build(newCorpus, dry, dryOpts); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("suspiciously few crash points: %d", total)
	}

	for n := 1; n <= total; n++ {
		dir := filepath.Join(t.TempDir(), "ix")
		old := seedIndex(t, dir, oldCorpus, opts)
		ffs := fsio.NewFaultFS(fsio.OS).FailAt(n)
		crashOpts := opts
		crashOpts.FS = ffs
		_, err := Build(newCorpus, dir, crashOpts)
		if err == nil {
			// The fault landed on the trailing best-effort backup
			// removal: the new index is already committed.
			got := openAndFingerprint(t, dir)
			if got.numTexts != newCorpus.NumTexts() {
				t.Fatalf("op %d: silent success with wrong index %+v", n, got)
			}
		} else {
			if !errors.Is(err, fsio.ErrInjected) {
				t.Fatalf("op %d: unexpected error: %v", n, err)
			}
			checkCrashInvariant(t, dir, n, old, newCorpus.NumTexts())
		}

		// A retry on the recovered directory must succeed and commit.
		if _, err := Build(newCorpus, dir, opts); err != nil {
			t.Fatalf("op %d: rebuild after crash: %v", n, err)
		}
		got := openAndFingerprint(t, dir)
		if got.numTexts != newCorpus.NumTexts() {
			t.Fatalf("op %d: rebuild produced %+v", n, got)
		}
	}
}

// TestBuildSingleFaultCleansUp runs the same loop in single-fault mode
// (the op fails but the process lives on), which exercises the cleanup
// code a real crash never runs: no staging directory or partial file
// may be left behind, unless the fault hit a best-effort step after the
// commit point, in which case the build legitimately succeeds.
func TestBuildSingleFaultCleansUp(t *testing.T) {
	oldCorpus := testCorpus(t, 12, 30, 60, 100, 7)
	newCorpus := testCorpus(t, 20, 30, 60, 100, 8)
	opts := BuildOptions{K: 2, Seed: 3, T: 10, Parallelism: 1}

	dry := filepath.Join(t.TempDir(), "ix")
	seedIndex(t, dry, oldCorpus, opts)
	counter := fsio.NewFaultFS(fsio.OS)
	dryOpts := opts
	dryOpts.FS = counter
	if _, err := Build(newCorpus, dry, dryOpts); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()

	for n := 1; n <= total; n++ {
		parent := t.TempDir()
		dir := filepath.Join(parent, "ix")
		old := seedIndex(t, dir, oldCorpus, opts)
		ffs := fsio.NewFaultFS(fsio.OS).SetCrash(false).FailAt(n)
		faultOpts := opts
		faultOpts.FS = ffs
		committedDespiteError := false
		_, err := Build(newCorpus, dir, faultOpts)
		if err == nil {
			// The fault hit a best-effort step (e.g. backup removal after
			// commit): the new index must be fully in place.
			got := openAndFingerprint(t, dir)
			if got.numTexts != newCorpus.NumTexts() {
				t.Fatalf("op %d: silent success with wrong index %+v", n, got)
			}
		} else {
			if !errors.Is(err, fsio.ErrInjected) {
				t.Fatalf("op %d: unexpected error: %v", n, err)
			}
			got := openAndFingerprint(t, dir)
			if got != old && !(got.buildID != old.buildID && got.numTexts == newCorpus.NumTexts()) {
				t.Fatalf("op %d: failed build left a mixed state: %+v -> %+v", n, old, got)
			}
			// A post-swap fsync failure reports an error with the new
			// index already in place and the old one parked as backup.
			committedDespiteError = got != old
		}
		// Error paths ran, so nothing may be left next to the index —
		// except the parked backup in the committed-despite-error case,
		// which the next open recovers.
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == "ix" || (committedDespiteError && e.Name() == "ix"+backupSuffix) {
				continue
			}
			t.Fatalf("op %d: leftover artifact %q", n, e.Name())
		}
	}
}

func TestBuildExternalCrashLoop(t *testing.T) {
	oldCorpus := testCorpus(t, 12, 30, 60, 100, 7)
	newCorpus := testCorpus(t, 20, 30, 60, 100, 8)
	opts := BuildOptions{K: 2, Seed: 3, T: 10, Parallelism: 1, BatchTokens: 400}

	path := filepath.Join(t.TempDir(), "c.tok")
	if err := corpus.WriteFile(newCorpus, path); err != nil {
		t.Fatal(err)
	}
	r, err := corpus.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	dry := filepath.Join(t.TempDir(), "ix")
	seedIndex(t, dry, oldCorpus, opts)
	counter := fsio.NewFaultFS(fsio.OS)
	dryOpts := opts
	dryOpts.FS = counter
	if _, err := BuildExternal(r, dry, dryOpts); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()

	// The external build has many more ops (spill files); stride the
	// loop to keep the test quick while still covering every phase.
	stride := total/40 + 1
	for n := 1; n <= total; n += stride {
		dir := filepath.Join(t.TempDir(), "ix")
		old := seedIndex(t, dir, oldCorpus, opts)
		ffs := fsio.NewFaultFS(fsio.OS).FailAt(n)
		crashOpts := opts
		crashOpts.FS = ffs
		if _, err := BuildExternal(r, dir, crashOpts); err == nil {
			got := openAndFingerprint(t, dir)
			if got.numTexts != newCorpus.NumTexts() {
				t.Fatalf("op %d: silent success with wrong index %+v", n, got)
			}
			continue
		}
		checkCrashInvariant(t, dir, n, old, newCorpus.NumTexts())
	}
}

func TestAppendCrashLoop(t *testing.T) {
	base := testCorpus(t, 12, 30, 60, 100, 7)
	extra := testCorpus(t, 8, 30, 60, 100, 9)
	opts := BuildOptions{K: 2, Seed: 3, T: 10, Parallelism: 1}

	dry := filepath.Join(t.TempDir(), "ix")
	seedIndex(t, dry, base, opts)
	counter := fsio.NewFaultFS(fsio.OS)
	if _, err := appendFS(counter, dry, extra); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()

	appended := base.NumTexts() + extra.NumTexts()
	for n := 1; n <= total; n++ {
		dir := filepath.Join(t.TempDir(), "ix")
		old := seedIndex(t, dir, base, opts)
		ffs := fsio.NewFaultFS(fsio.OS).FailAt(n)
		if _, err := appendFS(ffs, dir, extra); err == nil {
			got := openAndFingerprint(t, dir)
			if got.numTexts != appended {
				t.Fatalf("op %d: silent success with wrong index %+v", n, got)
			}
			continue
		}
		got := openAndFingerprint(t, dir)
		switch {
		case got == old:
		case got.buildID != old.buildID && got.numTexts == appended:
		default:
			t.Fatalf("op %d: mixed state after append crash: old %+v, got %+v", n, old, got)
		}
	}
}

// TestAppendErrorMeansNotCommitted fails every mutating op of an append
// and of a delete in turn (single-fault mode: the process lives on and
// reports to its caller) and checks the contract retry decisions rest
// on: an error without a committed build id means the directory still
// holds the old build. Once the manifest rename has happened, the only
// error left is a *CommitUnconfirmedError naming the visible build.
func TestAppendErrorMeansNotCommitted(t *testing.T) {
	base := testCorpus(t, 12, 30, 60, 100, 7)
	extra := testCorpus(t, 8, 30, 60, 100, 9)
	opts := BuildOptions{K: 2, Seed: 3, T: 10, Parallelism: 1}
	mutations := map[string]func(fsys fsio.FS, dir string) (committedID string, err error){
		"append": func(fsys fsio.FS, dir string) (string, error) { return appendFS(fsys, dir, extra) },
		"delete": func(fsys fsio.FS, dir string) (string, error) {
			err := deleteFS(fsys, dir, []uint32{3})
			var unconfirmed *CommitUnconfirmedError
			if errors.As(err, &unconfirmed) {
				return unconfirmed.BuildID, err
			}
			return "", err
		},
	}
	for name, mutate := range mutations {
		dry := filepath.Join(t.TempDir(), "ix")
		seedIndex(t, dry, base, opts)
		counter := fsio.NewFaultFS(fsio.OS)
		if _, err := mutate(counter, dry); err != nil {
			t.Fatal(err)
		}
		unconfirmed := 0
		for n := 1; n <= counter.Ops(); n++ {
			dir := filepath.Join(t.TempDir(), "ix")
			old := seedIndex(t, dir, base, opts)
			id, err := mutate(fsio.NewFaultFS(fsio.OS).SetCrash(false).FailAt(n), dir)
			got := openAndFingerprint(t, dir)
			switch {
			case err == nil:
				if got == old {
					t.Fatalf("%s op %d: success but the old build is still in place", name, n)
				}
			case id == "":
				if got != old {
					t.Fatalf("%s op %d: %v reported as not committed, but the directory changed: %+v -> %+v",
						name, n, err, old, got)
				}
				var ce *CommitUnconfirmedError
				if errors.As(err, &ce) {
					t.Fatalf("%s op %d: an uncommitted mutation reports a committed build: %v", name, n, err)
				}
			default:
				var ce *CommitUnconfirmedError
				if !errors.As(err, &ce) || !errors.Is(err, fsio.ErrInjected) || got.buildID != id {
					t.Fatalf("%s op %d: committed id %q with error %v, directory holds %+v", name, n, id, err, got)
				}
				unconfirmed++
			}
		}
		if unconfirmed != 1 {
			t.Fatalf("%s: %d fault points report committed-but-unconfirmed, want exactly the final directory fsync", name, unconfirmed)
		}
	}
}

// TestCompactErrorMeansNotCommitted is the same sweep over compaction:
// an error without a *CommitUnconfirmedError leaves the old segment set
// in place, and the one fault point after the directory swap — the
// parent fsync — reports the compacted build that is now live.
func TestCompactErrorMeansNotCommitted(t *testing.T) {
	dry := filepath.Join(t.TempDir(), "ix")
	segmentedFixture(t, dry)
	counter := fsio.NewFaultFS(fsio.OS)
	if err := compactFS(counter, dry); err != nil {
		t.Fatal(err)
	}
	unconfirmed := 0
	for n := 1; n <= counter.Ops(); n++ {
		dir := filepath.Join(t.TempDir(), "ix")
		old, _ := segmentedFixture(t, dir)
		err := compactFS(fsio.NewFaultFS(fsio.OS).SetCrash(false).FailAt(n), dir)
		got := openAndFingerprint(t, dir)
		var ce *CommitUnconfirmedError
		switch {
		case err == nil:
			if got == old {
				t.Fatalf("op %d: success but the old segment set is still in place", n)
			}
		case !errors.As(err, &ce):
			if got != old {
				t.Fatalf("op %d: %v reported as not committed, but the directory changed: %+v -> %+v", n, err, old, got)
			}
		default:
			if !errors.Is(err, fsio.ErrInjected) || got.buildID != ce.BuildID || got == old {
				t.Fatalf("op %d: committed id %q with error %v, directory holds %+v", n, ce.BuildID, err, got)
			}
			unconfirmed++
		}
	}
	if unconfirmed != 1 {
		t.Fatalf("%d fault points report committed-but-unconfirmed, want exactly the parent fsync after the swap", unconfirmed)
	}
}

// TestMutationOpCounts pins what each mutation costs in mutating
// filesystem operations (creates, writes, fsyncs, renames, removes) on
// the crash loops' K=2 fixture and at the repo benchmark's K=32 — every
// one of them is a crash point and, on a real disk, mostly an fsync. A
// segment is one file, so the counts do not grow with K: an append is
// the segment file's create, write and fsync, a directory fsync and the
// manifest commit; a compaction stages one segment file and a manifest
// and swaps the directory. A change that adds a write path to a mutation
// shows up here.
func TestMutationOpCounts(t *testing.T) {
	base := testCorpus(t, 12, 30, 60, 100, 7)
	extra := testCorpus(t, 8, 30, 60, 100, 9)
	for _, k := range []int{2, 32} {
		dir := filepath.Join(t.TempDir(), "ix")
		seedIndex(t, dir, base, BuildOptions{K: k, Seed: 3, T: 10})
		for _, m := range []struct {
			name string
			want int
			run  func(fsys fsio.FS) error
		}{
			{"append", 9, func(fsys fsio.FS) error { _, err := appendFS(fsys, dir, extra); return err }},
			{"delete", 8, func(fsys fsio.FS) error { return deleteFS(fsys, dir, []uint32{3}) }},
			{"compact", 13, func(fsys fsio.FS) error { return compactFS(fsys, dir) }},
		} {
			counter := fsio.NewFaultFS(fsio.OS)
			if err := m.run(counter); err != nil {
				t.Fatalf("k=%d %s: %v", k, m.name, err)
			}
			if got := counter.Ops(); got != m.want {
				t.Errorf("k=%d %s: %d mutating ops, want %d", k, m.name, got, m.want)
			}
		}
	}
}

// segmentedFixture builds a base index, appends a segment, and deletes
// one text — the richest segment-set state the lifecycle mutations
// start from.
func segmentedFixture(t *testing.T, dir string) (old fingerprint, numTexts int) {
	t.Helper()
	base := testCorpus(t, 12, 30, 60, 100, 7)
	extra := testCorpus(t, 8, 30, 60, 100, 9)
	opts := BuildOptions{K: 2, Seed: 3, T: 10, Parallelism: 1}
	if _, err := Build(base, dir, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Append(dir, extra); err != nil {
		t.Fatal(err)
	}
	if err := Delete(dir, []uint32{3}); err != nil {
		t.Fatal(err)
	}
	return openAndFingerprint(t, dir), base.NumTexts() + extra.NumTexts()
}

// TestCompactCrashLoop kills the compactor at every mutating op in
// turn: the directory must afterwards hold the old segment set or the
// new single segment — never a mix — and a retry must finish the job.
func TestCompactCrashLoop(t *testing.T) {
	dry := filepath.Join(t.TempDir(), "ix")
	segmentedFixture(t, dry)
	counter := fsio.NewFaultFS(fsio.OS)
	if err := compactFS(counter, dry); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("suspiciously few crash points: %d", total)
	}

	for n := 1; n <= total; n++ {
		dir := filepath.Join(t.TempDir(), "ix")
		old, numTexts := segmentedFixture(t, dir)
		ffs := fsio.NewFaultFS(fsio.OS).FailAt(n)
		if err := compactFS(ffs, dir); err == nil {
			got := openAndFingerprint(t, dir)
			if got.numTexts != numTexts {
				t.Fatalf("op %d: silent success with wrong index %+v", n, got)
			}
			continue
		}
		got := openAndFingerprint(t, dir)
		switch {
		case got == old:
			// Old segment set intact.
		case got.buildID != old.buildID && got.numTexts == numTexts:
			// Fully committed compaction.
		default:
			t.Fatalf("op %d: mixed state after compact crash: old %+v, got %+v", n, old, got)
		}

		// A retry on the recovered directory must compact to one segment.
		if err := Compact(dir); err != nil {
			t.Fatalf("op %d: compact after crash: %v", n, err)
		}
		ix, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if ix.SegmentCount() != 1 {
			t.Fatalf("op %d: retry left %d segments", n, ix.SegmentCount())
		}
		ix.Close()
	}
}

// TestDeleteCrashLoop kills the tombstone commit at every mutating op:
// the manifest must afterwards name the pre-delete state or the
// post-delete state, and a retried delete must land.
func TestDeleteCrashLoop(t *testing.T) {
	victims := []uint32{1, 15}

	dry := filepath.Join(t.TempDir(), "ix")
	segmentedFixture(t, dry)
	counter := fsio.NewFaultFS(fsio.OS)
	if err := deleteFS(counter, dry, victims); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 5 {
		t.Fatalf("suspiciously few crash points: %d", total)
	}

	tombstoned := func(t *testing.T, dir string) (string, int) {
		t.Helper()
		ix, err := Open(dir)
		if err != nil {
			t.Fatalf("index did not survive delete crash: %v", err)
		}
		defer ix.Close()
		n := 0
		for _, s := range ix.Segments() {
			n += s.Tombstoned
		}
		return ix.BuildID(), n
	}

	for n := 1; n <= total; n++ {
		dir := filepath.Join(t.TempDir(), "ix")
		old, _ := segmentedFixture(t, dir)
		before := 1 // segmentedFixture deletes one text
		want := before + len(victims)
		if err := deleteFS(fsio.NewFaultFS(fsio.OS).FailAt(n), dir, victims); err == nil {
			if _, got := tombstoned(t, dir); got != want {
				t.Fatalf("op %d: silent success with %d tombstones, want %d", n, got, want)
			}
			continue
		}
		id, got := tombstoned(t, dir)
		switch {
		case id == old.buildID && got == before:
			// Pre-delete state intact.
		case id != old.buildID && got == want:
			// Fully committed delete.
		default:
			t.Fatalf("op %d: mixed state after delete crash: build %q tombstones %d", n, id, got)
		}

		// Retry must land the delete regardless of where the crash hit.
		if err := Delete(dir, victims); err != nil {
			t.Fatalf("op %d: delete after crash: %v", n, err)
		}
		if _, got := tombstoned(t, dir); got != want {
			t.Fatalf("op %d: retry left %d tombstones, want %d", n, got, want)
		}
	}
}

// TestBuildShardedCrashSurvives spot-checks the sharded builder's
// commit: crashes spread over its op range must leave the old index
// openable or the new one fully committed.
func TestBuildShardedCrashSurvives(t *testing.T) {
	oldCorpus := testCorpus(t, 12, 30, 60, 100, 7)
	newCorpus := testCorpus(t, 20, 30, 60, 100, 8)
	opts := BuildOptions{K: 2, Seed: 3, T: 10, Parallelism: 1}

	dry := filepath.Join(t.TempDir(), "ix")
	seedIndex(t, dry, oldCorpus, opts)
	counter := fsio.NewFaultFS(fsio.OS)
	dryOpts := opts
	dryOpts.FS = counter
	if err := BuildSharded(newCorpus, dry, dryOpts, 3); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()

	// Shard builds run concurrently, so op numbering across shards is
	// not deterministic — but the invariant must hold at every crash
	// point regardless of which op the fault lands on.
	stride := total/30 + 1
	for n := 1; n <= total; n += stride {
		dir := filepath.Join(t.TempDir(), "ix")
		old := seedIndex(t, dir, oldCorpus, opts)
		ffs := fsio.NewFaultFS(fsio.OS).FailAt(n)
		crashOpts := opts
		crashOpts.FS = ffs
		if err := BuildSharded(newCorpus, dir, crashOpts, 3); err == nil {
			// Concurrency may shift ops; a run that finishes under the
			// fault budget simply committed.
			got := openAndFingerprint(t, dir)
			if got.numTexts != newCorpus.NumTexts() {
				t.Fatalf("op %d: success with wrong index %+v", n, got)
			}
			continue
		}
		checkCrashInvariant(t, dir, n, old, newCorpus.NumTexts())
	}
}

func TestOpenRecoversBackup(t *testing.T) {
	c := testCorpus(t, 12, 30, 60, 100, 7)
	opts := BuildOptions{K: 2, Seed: 3, T: 10, Parallelism: 1}

	t.Run("restores parked index", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ix")
		old := seedIndex(t, dir, c, opts)
		// Simulate a crash between the two commit renames: the previous
		// index is parked at .old and dir is gone.
		if err := os.Rename(dir, dir+backupSuffix); err != nil {
			t.Fatal(err)
		}
		got := openAndFingerprint(t, dir)
		if got != old {
			t.Fatalf("restored index differs: %+v vs %+v", old, got)
		}
		if _, err := os.Stat(dir + backupSuffix); !os.IsNotExist(err) {
			t.Fatalf("backup still present after recovery: %v", err)
		}
	})

	t.Run("drops stale backup", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ix")
		old := seedIndex(t, dir, c, opts)
		// Simulate a crash after the commit completed but before the
		// backup removal: both dir and .old exist.
		if err := os.MkdirAll(dir+backupSuffix, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir+backupSuffix, "index.meta"), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
		got := openAndFingerprint(t, dir)
		if got != old {
			t.Fatalf("index changed by backup recovery: %+v vs %+v", old, got)
		}
		if _, err := os.Stat(dir + backupSuffix); !os.IsNotExist(err) {
			t.Fatalf("stale backup not dropped: %v", err)
		}
	})
}

func TestBuildSweepsOrphans(t *testing.T) {
	c := testCorpus(t, 12, 30, 60, 100, 7)
	parent := t.TempDir()
	dir := filepath.Join(parent, "ix")

	// Plant what a crashed prior build could have left: a staging
	// directory next to dir.
	orphan := filepath.Join(parent, "ix.tmp-12345")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, segmentName(0)), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Build(c, dir, BuildOptions{K: 2, Seed: 3, T: 10, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan staging dir not swept: %v", err)
	}
	openAndFingerprint(t, dir)
}

// TestWriterFinishFailureRemovesFile is the regression test for the
// segmentWriter error paths: a failure inside finish must not leave the
// partial segment file behind.
func TestWriterFinishFailureRemovesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(0))
	ffs := fsio.NewFaultFS(fsio.OS).SetCrash(false)
	w, err := newSegmentWriter(ffs, path, 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.addList(42, []record{{Hash: 42, Posting: Posting{TextID: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.endFunc(); err != nil {
		t.Fatal(err)
	}
	// Ops so far: Create. From here, finish's buffered Flush is op 1 and
	// its fsync op 2.
	ffs.FailAt(2)
	if _, err := w.finish(); !errors.Is(err, fsio.ErrInjected) {
		t.Fatalf("finish should fail with injected error, got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial segment file left behind: %v", err)
	}
	// abort after a failed finish must be a no-op, not a panic.
	w.abort()
}

// TestReadErrorCarriesContext injects a read fault into the postings
// region of an opened index and checks the failure surfaces as a
// *ReadError naming the file and offset — never a panic.
func TestReadErrorCarriesContext(t *testing.T) {
	c := testCorpus(t, 30, 40, 100, 200, 61)
	dir := t.TempDir()
	if _, err := Build(c, dir, BuildOptions{K: 2, Seed: 5, T: 10, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	ffs := fsio.NewFaultFS(fsio.OS)
	ix, err := OpenFS(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Fault a byte early in function 0's postings region; list reads
	// covering it must fail, wrapped with context.
	path, off := segmentFile(t, dir, 0, 0)
	off += 4
	ffs.FailReadAt(path, off)
	var gotErr error
	for _, h := range ix.Hashes(0) {
		if _, err := ix.ReadListInto(nil, 0, h, nil); err != nil {
			gotErr = err
			break
		}
	}
	if gotErr == nil {
		t.Fatal("no read covered the faulted offset")
	}
	var re *ReadError
	if !errors.As(gotErr, &re) {
		t.Fatalf("error does not carry ReadError context: %v", gotErr)
	}
	if re.Path == "" || re.Len <= 0 {
		t.Fatalf("ReadError missing context: %+v", re)
	}
	if re.Path != path || !(re.Off <= off && off < re.Off+int64(re.Len)) {
		t.Fatalf("ReadError range [%d,%d) does not cover faulted offset", re.Off, re.Off+int64(re.Len))
	}
	if !errors.Is(gotErr, fsio.ErrInjected) {
		t.Fatalf("wrapped cause lost: %v", gotErr)
	}

	// Clearing the fault makes the same reads succeed: the failure did
	// not poison the open index.
	ffs.ClearReadFault()
	for _, h := range ix.Hashes(0) {
		if _, err := ix.ReadListInto(nil, 0, h, nil); err != nil {
			t.Fatalf("read after fault cleared: %v", err)
		}
	}
}
