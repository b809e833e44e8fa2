package index

import (
	"fmt"

	"ndss/internal/fsio"
)

// Delete tombstones the given global text ids: the segments are left
// untouched (they are immutable) and a fresh per-segment bitmap naming
// the dead local ids is written and published by an atomic manifest
// commit. Readers consult the bitmap at gather time, so a deleted text
// never becomes a candidate; its postings stay on disk until Compact
// purges them. Ids are never reused — the aggregate NumTexts keeps
// counting the full id-space width. Deleting an already-deleted id is
// a no-op; an id beyond the corpus is an error. A
// *CommitUnconfirmedError means the delete is committed and visible;
// any other error means nothing changed.
func Delete(dir string, ids []uint32) error {
	return deleteFS(fsio.OS, dir, ids)
}

func deleteFS(fsys fsio.FS, dir string, ids []uint32) error {
	if len(ids) == 0 {
		return nil
	}
	if err := recoverBackup(fsys, dir); err != nil {
		return err
	}
	man, err := readManifest(fsys, dir)
	if err != nil {
		return err
	}
	if err := sweepOrphans(fsys, dir); err != nil {
		return err
	}
	if err := sweepSegments(fsys, dir, man); err != nil {
		return err
	}
	// Map global ids onto segments via the cumulative text-id bases.
	bases := make([]uint32, len(man.Segments))
	var total int64
	for i, seg := range man.Segments {
		bases[i] = uint32(total)
		total += int64(seg.Meta.NumTexts)
	}
	tombs := make(map[int]*tombSet)
	for _, id := range ids {
		if int64(id) >= total {
			return fmt.Errorf("index: delete text %d: corpus has %d texts", id, total)
		}
		si := len(bases) - 1
		for si > 0 && bases[si] > id {
			si--
		}
		t := tombs[si]
		if t == nil {
			seg := man.Segments[si]
			if seg.Tomb != nil {
				t, err = readTombstone(fsys, dir, seg.Tomb, seg.Meta.NumTexts)
				if err != nil {
					return err
				}
			} else {
				t = newTombSet(seg.Meta.NumTexts)
			}
			tombs[si] = t
		}
		t.set(int(id - bases[si]))
	}
	// Write the new bitmaps under fresh names (the old ones stay valid
	// until the manifest commit retires them), in segment order so the
	// operation is deterministic.
	for si := range man.Segments {
		t, ok := tombs[si]
		if !ok {
			continue
		}
		mt, err := writeTombstone(fsys, dir, man.Segments[si].Name, t)
		if err != nil {
			return err
		}
		man.Segments[si].Tomb = mt
	}
	return commitManifest(fsys, dir, man)
}
