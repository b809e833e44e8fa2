package index

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
	"ndss/internal/hash"
)

// MergeShards merges index directories built over consecutive corpus
// shards into one index at outDir. offsets[i] is added to every text id
// of shard i, and shards must cover ascending, disjoint id ranges (the
// natural outcome of splitting a corpus into consecutive chunks), so
// merged lists stay sorted by text id. All shards must share K, Seed
// and T. Zone maps are regenerated for the merged lists.
//
// Like the builders, the merge is staged and committed atomically: a
// failed merge leaves any previous index at outDir untouched.
//
// This realizes the paper's parallel-build strategy — per-worker
// private index state merged and flushed at the end — at directory
// granularity.
func MergeShards(shardDirs []string, offsets []uint32, outDir string) error {
	return mergeShardsFS(fsio.OS, shardDirs, offsets, outDir)
}

func mergeShardsFS(fsys fsio.FS, shardDirs []string, offsets []uint32, outDir string) error {
	if len(shardDirs) == 0 {
		return fmt.Errorf("index: no shards to merge")
	}
	if len(offsets) != len(shardDirs) {
		return fmt.Errorf("index: %d offsets for %d shards", len(offsets), len(shardDirs))
	}
	shards := make([]*Index, len(shardDirs))
	for i, dir := range shardDirs {
		ix, err := OpenFS(fsys, dir)
		if err != nil {
			return fmt.Errorf("index: open shard %d: %w", i, err)
		}
		defer ix.Close()
		shards[i] = ix
	}
	return mergeInto(fsys, shards, offsets, outDir)
}

// mergeInto is the one multi-part writer: it merges the opened shards'
// lists, shard i's text ids shifted by offsets[i], into a single segment
// staged next to outDir and committed atomically. A shard may
// itself be a segment set — each segment is a source of its own, its
// tombstoned postings dropped — which is all compaction needs.
func mergeInto(fsys fsio.FS, shards []*Index, offsets []uint32, outDir string) error {
	merged := shards[0].Meta()
	merged.NumTexts, merged.TotalTokens = 0, 0
	for i, sh := range shards {
		m := sh.Meta()
		if m.K != merged.K || m.Seed != merged.Seed || m.T != merged.T {
			return fmt.Errorf("index: shard %d parameters (k=%d seed=%d t=%d) differ from shard 0 (k=%d seed=%d t=%d)",
				i, m.K, m.Seed, m.T, merged.K, merged.Seed, merged.T)
		}
		merged.NumTexts += m.NumTexts
		merged.TotalTokens += m.TotalTokens
	}
	// Every (shard, segment) is one merge source, in ascending text-id
	// order: shard offsets ascend and so do segment bases within a shard.
	var srcs []mergeSource
	for i, sh := range shards {
		for si, seg := range sh.segs {
			srcs = append(srcs, mergeSource{ix: sh, seg: si, base: offsets[i] + seg.base, tomb: seg.tomb})
		}
	}
	// No sweep: BuildSharded's shard workspace matches the orphan pattern
	// and is still live.
	return stagedBuild(fsys, outDir, false, merged, func(path string) (segSum, error) {
		w, err := newSegmentWriter(fsys, path, merged.K, merged.ZoneMapStep, merged.LongListCutoff)
		if err != nil {
			return segSum{}, err
		}
		defer w.abort()
		for fn := 0; fn < merged.K; fn++ {
			if err := mergeFunc(srcs, fn, w); err != nil {
				return segSum{}, err
			}
		}
		return w.finish()
	})
}

// mergeWindow caps a source's read-ahead window: a function's region is
// read front to back in chunks of this size, not list by list.
const mergeWindow = 1 << 20

// mergeSource is one segment's input to the merge of one hash function:
// a cursor over the function's hash-sorted directory, and a window
// holding bytes [winOff, winOff+len(win)) of its postings region.
type mergeSource struct {
	ix   *Index // the shard the segment belongs to
	seg  int    // the segment's ordinal within ix
	base uint32 // added to every surviving local text id
	tomb *tombSet

	ff     *funcFile
	row    int // next directory row to merge
	win    []byte
	winOff uint64
	buf    []byte // window storage, reused across functions
}

// start points the source at function fn's region.
func (s *mergeSource) start(fn int) {
	s.ff = s.ix.segs[s.seg].funcs[fn]
	s.row, s.win, s.winOff = 0, nil, 0
}

// appendList appends the postings of the list at the cursor to dst as
// records of its hash — tombstoned ids dropped, the rest shifted by
// base — and advances the cursor. Lists lie in the region in hash order,
// the cursor's order, so a list past the window refills it at the
// list's offset with up to mergeWindow bytes of the lists that follow.
func (s *mergeSource) appendList(dst []record) ([]record, error) {
	h, off, n := s.ff.hashes[s.row], uint64(s.ff.off(s.row)), uint64(s.ff.count(s.row))*postingSize
	s.row++
	if off+n > s.winOff+uint64(len(s.win)) {
		size := max(n, min(mergeWindow, s.ff.dirOff-off))
		if uint64(cap(s.buf)) < size {
			s.buf = make([]byte, size)
		}
		s.win, s.winOff = s.buf[:size], off
		if err := s.ix.readAt(s.ff, s.seg, s.win, int64(off), nil); err != nil {
			return dst, fmt.Errorf("index: read list %x: %w", h, err)
		}
	}
	b := s.win[off-s.winOff:][:n]
	for i := 0; i < len(b); i += postingSize {
		p := decodePosting(b[i:])
		if s.tomb.has(p.TextID) {
			continue
		}
		p.TextID += s.base
		dst = append(dst, record{Hash: h, Posting: p})
	}
	return dst, nil
}

// mergeFunc k-way merges one hash function's lists across the sources
// into w, list by list in hash order. Memory is the longest merged list
// plus one window per source, whatever the index size.
func mergeFunc(srcs []mergeSource, fn int, w *segmentWriter) error {
	for i := range srcs {
		srcs[i].start(fn)
	}
	var recs []record
	for {
		// Find the smallest pending hash across sources.
		var cur uint64
		found := false
		for i := range srcs {
			s := &srcs[i]
			if s.row < len(s.ff.hashes) && (!found || s.ff.hashes[s.row] < cur) {
				cur, found = s.ff.hashes[s.row], true
			}
		}
		if !found {
			break
		}
		// Collect its postings from every source holding it, in source
		// order (ascending text-id ranges keep the list sorted).
		recs = recs[:0]
		for i := range srcs {
			s := &srcs[i]
			if s.row >= len(s.ff.hashes) || s.ff.hashes[s.row] != cur {
				continue
			}
			var err error
			if recs, err = s.appendList(recs); err != nil {
				return err
			}
		}
		// Every posting of this hash may be tombstoned; a list with no
		// survivors is simply not written.
		if len(recs) == 0 {
			continue
		}
		if err := w.addList(cur, recs); err != nil {
			return err
		}
	}
	return w.endFunc()
}

// Append extends an existing index at dir with new texts (ids continue
// after the existing corpus) by writing one new immutable segment file
// into dir and atomically committing a manifest that names it — the
// existing segments are not rewritten or even read. Search results are
// identical to rebuilding over the concatenated corpus. Appending no
// texts is an error, and touches nothing.
//
// The segment file and then dir are fsynced before the manifest rename
// publishes it, so a crash at any point leaves the old segment set or
// the new one, never a mix; a segment file the manifest never came to
// name is swept by the next mutation.
//
// An error with buildID == "" means nothing was committed and the
// append is safe to retry. A *CommitUnconfirmedError comes with the
// build id it committed: the texts are in the index, do not re-append.
func Append(dir string, newTexts *corpus.Corpus) (buildID string, err error) {
	return appendFS(fsio.OS, dir, newTexts)
}

func appendFS(fsys fsio.FS, dir string, newTexts *corpus.Corpus) (string, error) {
	if newTexts.NumTexts() == 0 {
		return "", errors.New("index: append of no texts")
	}
	if err := recoverBackup(fsys, dir); err != nil {
		return "", err
	}
	man, err := readManifest(fsys, dir)
	if err != nil {
		return "", err
	}
	// Sweep leftovers of crashed prior mutations before writing.
	if err := sweepOrphans(fsys, dir); err != nil {
		return "", err
	}
	if err := sweepSegments(fsys, dir, man); err != nil {
		return "", err
	}
	meta := man.Meta
	if int64(meta.NumTexts)+int64(newTexts.NumTexts()) > math.MaxUint32 {
		return "", fmt.Errorf("index: append of %d texts would exceed the %d-text id space",
			newTexts.NumTexts(), uint32(math.MaxUint32))
	}
	opts := BuildOptions{
		K: meta.K, Seed: meta.Seed, T: meta.T,
		ZoneMapStep: meta.ZoneMapStep, LongListCutoff: meta.LongListCutoff,
		FS: fsys,
	}
	if err := opts.setDefaults(); err != nil {
		return "", err
	}
	fam, err := hash.NewFamily(opts.K, opts.Seed)
	if err != nil {
		return "", err
	}
	segName := nextSegmentName(man)
	path := filepath.Join(dir, segName)
	sum, err := buildSegment(newTexts, fam, path, opts, &BuildStats{WindowsPerFunc: make([]int64, opts.K)})
	if err == nil {
		// The file's directory entry must be durable before a manifest
		// can name it.
		err = fsys.SyncDir(dir)
	}
	if err == nil {
		man.Segments = append(man.Segments, ManifestSegment{
			Name: segName, Meta: opts.meta(newTexts.NumTexts(), newTexts.TotalTokens()),
			Size: sum.size, FooterCRC: sum.footerCRC,
		})
		err = commitManifest(fsys, dir, man)
	}
	// Report the committed build id: once the manifest is renamed into
	// place the texts are part of the index whether or not the caller
	// manages to swap a reloaded backend in, and retry decisions (a blind
	// re-append would duplicate the texts) need the id of the committed
	// build — also when the commit's trailing fsync failed.
	var unconfirmed *CommitUnconfirmedError
	if errors.As(err, &unconfirmed) {
		return man.BuildID, err
	}
	if err != nil {
		fsys.Remove(path)
		return "", err
	}
	return man.BuildID, nil
}

// Compact merges the index's segment set back into a single segment, dropping tombstoned postings for good. Search results are
// byte-identical before and after: text ids are preserved (the id space
// keeps counting deleted texts — ids are never reused), and per-hash
// lists end up in the same global order the multi-segment reader
// produced. The merged index is staged and swapped in with the same
// atomic commit protocol as a fresh build, so a crash leaves the old
// segment set or the new single segment. An already-compact index (one
// segment, no tombstones) is a no-op.
//
// A *CommitUnconfirmedError means the compacted index is in place and
// serving every later Open; its BuildID names it. Any other error
// leaves the old segment set in place.
func Compact(dir string) error {
	return compactFS(fsio.OS, dir)
}

func compactFS(fsys fsio.FS, dir string) error {
	ix, err := OpenFS(fsys, dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	if len(ix.segs) == 1 && ix.segs[0].tomb == nil {
		return nil
	}
	// The aggregate meta carries the id-space width (tombstoned texts
	// included), so merging the set as one shard at offset 0 preserves
	// every surviving text id.
	return mergeInto(fsys, []*Index{ix}, []uint32{0}, dir)
}

// BuildSharded splits an in-memory corpus into numShards consecutive
// chunks, builds a shard index for each concurrently, and merges them
// into dir with the same atomic-commit protocol as Build. The result
// is identical to Build over the whole corpus.
func BuildSharded(c *corpus.Corpus, dir string, opts BuildOptions, numShards int) error {
	if numShards < 1 {
		numShards = 1
	}
	if numShards > c.NumTexts() && c.NumTexts() > 0 {
		numShards = c.NumTexts()
	}
	if err := opts.setDefaults(); err != nil {
		return err
	}
	fsys := opts.FS
	// The shard workspace is a staging-pattern sibling of dir, so a crash
	// leaves it as a sweepable orphan; the final merge stages beside it
	// and commits into dir atomically.
	tmp, err := beginBuild(fsys, dir, true)
	if err != nil {
		return err
	}
	defer fsys.RemoveAll(tmp)

	chunk := (c.NumTexts() + numShards - 1) / numShards
	var (
		shardDirs []string
		offsets   []uint32
	)
	type job struct {
		dir   string
		start int
		end   int
	}
	var jobs []job
	for s := 0; s < numShards; s++ {
		start := s * chunk
		end := start + chunk
		if end > c.NumTexts() {
			end = c.NumTexts()
		}
		if start >= end {
			break
		}
		sd := filepath.Join(tmp, fmt.Sprintf("shard-%03d", s))
		shardDirs = append(shardDirs, sd)
		offsets = append(offsets, uint32(start))
		jobs = append(jobs, job{dir: sd, start: start, end: end})
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sub := corpus.New(nil)
			for id := j.start; id < j.end; id++ {
				sub.Append(c.Text(uint32(id)))
			}
			shardOpts := opts
			shardOpts.Parallelism = 1 // shards are the parallelism unit
			_, errs[i] = Build(sub, j.dir, shardOpts)
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("index: build shard %d: %w", i, err)
		}
	}
	return mergeShardsFS(fsys, shardDirs, offsets, dir)
}
