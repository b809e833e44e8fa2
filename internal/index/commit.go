package index

import (
	"fmt"
	"path/filepath"

	"ndss/internal/fsio"
)

// Crash-safe build commit protocol.
//
// Builders never write into a live index directory. A build is staged
// into a sibling temp directory ("<dir>.tmp-XXXX"), every data file is
// fsynced as it is finished, the manifest is written durably, the
// staging directory itself is fsynced, and the build is then committed
// by rename:
//
//	rename(dir, dir+".old")   // when dir already exists
//	rename(staging, dir)
//	fsync(parent)
//	remove(dir+".old")
//
// A crash at any point leaves the directory in one of three states,
// all recoverable: the old index in place (build never committed), the
// old index parked at dir+".old" with dir absent (crash between the
// renames; recoverBackup restores it), or the new index in place with
// a leftover backup (crash before the final remove; recoverBackup
// deletes it). Staging directories orphaned by crashed builds
// (BuildExternal's batch indexes included — they live inside) are
// swept when the next build starts.

// backupSuffix names the parked previous index during a commit swap.
const backupSuffix = ".old"

// stagingPattern is the MkdirTemp pattern for build staging
// directories of dir; sweepOrphans globs the same shape.
func stagingPattern(dir string) (parent, pattern string) {
	dir = filepath.Clean(dir)
	return filepath.Dir(dir), filepath.Base(dir) + ".tmp-*"
}

// stagedBuild is the one way an index directory comes into being. It
// recovers any interrupted commit at dir, sweeps the orphaned staging
// directories of crashed builds and makes a fresh one next to dir; write
// fills the segment file at path in it and returns its size and footer
// checksum; the manifest naming it with meta is added and the staging
// directory committed as dir. A failure discards the staging directory
// (best-effort: after an injected crash the removal itself fails, and
// the next build sweeps the orphan); short of commitDir's renames it
// leaves a previous index at dir untouched, and after them it is a
// *CommitUnconfirmedError naming the build now at dir.
func stagedBuild(fsys fsio.FS, dir string, meta Meta, write func(path string) (segSum, error)) error {
	parent, pattern := stagingPattern(dir)
	if err := fsys.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("index: create parent dir: %w", err)
	}
	if err := recoverBackup(fsys, dir); err != nil {
		return err
	}
	if err := sweepOrphans(fsys, dir); err != nil {
		return err
	}
	staging, err := fsys.MkdirTemp(parent, pattern)
	if err != nil {
		return fmt.Errorf("index: create staging dir: %w", err)
	}
	sum, err := write(filepath.Join(staging, segmentName(0)))
	if err == nil {
		man := newManifest(meta, sum)
		if err = writeManifest(fsys, staging, man); err == nil {
			err = commitDir(fsys, staging, dir, man.BuildID)
		}
	}
	if err != nil {
		fsys.RemoveAll(staging)
	}
	return err
}

// sweepOrphans removes the staging directories next to dir that a
// crashed prior run may have left behind.
func sweepOrphans(fsys fsio.FS, dir string) error {
	parent, pattern := stagingPattern(dir)
	stale, err := fsys.Glob(filepath.Join(parent, pattern))
	if err != nil {
		return err
	}
	for _, s := range stale {
		if err := fsys.RemoveAll(s); err != nil {
			return fmt.Errorf("index: sweep stale staging %s: %w", s, err)
		}
	}
	return nil
}

// sweepSegments removes segment-lifecycle artifacts inside dir that the
// manifest does not reference: segment files left by a crash before
// their append's manifest commit, interrupted manifest replacements, and
// retired tombstone bitmaps. Everything the manifest names is kept, so
// the sweep is safe at any point a mutation is not in flight.
func sweepSegments(fsys fsio.FS, dir string, m *Manifest) error {
	ref := make(map[string]bool, 2*len(m.Segments))
	for _, s := range m.Segments {
		ref[s.Name] = true
		if s.Tomb != nil {
			ref[s.Tomb.Name] = true
		}
	}
	for _, pattern := range []string{"seg-*", "tomb-*", manifestTmpPattern} {
		stale, err := fsys.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return err
		}
		for _, s := range stale {
			if ref[filepath.Base(s)] {
				continue
			}
			if err := fsys.RemoveAll(s); err != nil {
				return fmt.Errorf("index: sweep stale segment artifact %s: %w", s, err)
			}
		}
	}
	return nil
}

// recoverBackup resolves a leftover "<dir>.old" from an interrupted
// commit swap. If dir is absent the backup is the only surviving
// index and is restored; if dir exists the commit completed and the
// backup is deleted (best-effort — a stale backup must never shadow
// or block the committed index).
func recoverBackup(fsys fsio.FS, dir string) error {
	backup := dir + backupSuffix
	if _, err := fsys.Stat(backup); err != nil {
		if fsio.NotExist(err) {
			return nil
		}
		return err
	}
	if _, err := fsys.Stat(dir); err == nil {
		// Commit completed before the crash; drop the parked old index.
		fsys.RemoveAll(backup)
		return nil
	}
	if err := fsys.Rename(backup, dir); err != nil {
		return fmt.Errorf("index: restore interrupted-commit backup %s: %w", backup, err)
	}
	return fsys.SyncDir(filepath.Dir(dir))
}

// commitDir atomically publishes a fully written staging directory,
// holding build buildID, as dir. Data files must already be fsynced
// (segmentWriter.finish and fsio.WriteFileSync guarantee this); commitDir
// fsyncs the staging directory, swaps it in by rename, and fsyncs the
// parent so the swap is durable. A failure before the swap leaves the
// previous index (or puts it back) in place; a failed parent fsync
// after it is a *CommitUnconfirmedError, since the new build is what
// every later Open sees.
func commitDir(fsys fsio.FS, staging, dir, buildID string) error {
	if err := fsys.SyncDir(staging); err != nil {
		return fmt.Errorf("index: sync staging dir: %w", err)
	}
	parent := filepath.Dir(filepath.Clean(dir))
	backup := dir + backupSuffix
	if _, err := fsys.Stat(dir); err == nil {
		if err := fsys.Rename(dir, backup); err != nil {
			return fmt.Errorf("index: park previous index: %w", err)
		}
		if err := fsys.Rename(staging, dir); err != nil {
			// Put the previous index back; if even that fails the
			// backup remains and recoverBackup restores it next time.
			fsys.Rename(backup, dir)
			return fmt.Errorf("index: commit rename: %w", err)
		}
		if err := fsys.SyncDir(parent); err != nil {
			return &CommitUnconfirmedError{BuildID: buildID, Err: fmt.Errorf("sync parent dir: %w", err)}
		}
		// The new index is durable; the backup is now garbage. Removal
		// is best-effort — recoverBackup clears a leftover on the next
		// open or build.
		fsys.RemoveAll(backup)
		return nil
	} else if !fsio.NotExist(err) {
		return err
	}
	if err := fsys.Rename(staging, dir); err != nil {
		return fmt.Errorf("index: commit rename: %w", err)
	}
	if err := fsys.SyncDir(parent); err != nil {
		return &CommitUnconfirmedError{BuildID: buildID, Err: fmt.Errorf("sync parent dir: %w", err)}
	}
	return nil
}
