package index

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
	"ndss/internal/hash"
)

// BuildExternal constructs the index for a corpus file that may not fit
// in memory, using hash aggregation with recursive partitioning (§3.4's
// large-corpus path): texts are streamed in batches, each batch's
// compact-window records are partitioned by min-hash range and spilled
// to disk, and each partition is then loaded, sorted and appended to the
// function's inverted file, partitions in ascending range order, so its
// lists lie in hash order and the segment file's bytes equal Build's. A
// partition that still exceeds the memory budget is recursively
// re-partitioned over sub-ranges of its own range.
//
// Like Build, the whole construction — spill files included — is
// staged in a temp directory next to dir and committed atomically;
// spill artifacts stranded by a crashed prior run are swept when the
// build starts.
func BuildExternal(r *corpus.Reader, dir string, opts BuildOptions) (*BuildStats, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	fam, err := hash.NewFamily(opts.K, opts.Seed)
	if err != nil {
		return nil, err
	}
	fsys := opts.FS
	stats := &BuildStats{WindowsPerFunc: make([]int64, opts.K)}

	// Estimate partition fan-out so one partition fits the budget:
	// expected records ~= 2 * totalTokens / T, 24 bytes each.
	expBytes := 2 * r.TotalTokens() / int64(opts.T) * recordSize
	fanout := int(expBytes/opts.MemoryBudget) + 1
	if fanout > 512 {
		fanout = 512
	}

	err = stagedBuild(fsys, dir, true, opts.meta(r.NumTexts(), r.TotalTokens()), func(path string) (segSum, error) {
		w, err := newSegmentWriter(fsys, path, opts.K, opts.ZoneMapStep, opts.LongListCutoff)
		if err != nil {
			return segSum{}, err
		}
		defer w.abort()
		// Spills live beside the segment file in the staging directory.
		spillDir := filepath.Dir(path)
		for fn := 0; fn < opts.K; fn++ {
			if err := buildExternalFunc(r, fsys, spillDir, fn, fam.Func(fn), fanout, opts, stats, w); err != nil {
				return segSum{}, err
			}
		}
		ioStart := time.Now()
		sum, err := w.finish()
		stats.IOTime += time.Since(ioStart)
		stats.BytesWritten = sum.size
		return sum, err
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// hashRange is the half-open range [lo, hi) of hash values a spill set
// partitions.
type hashRange struct{ lo, hi uint64 }

// allHashes is every value the hash family produces.
var allHashes = hashRange{0, hash.MersennePrime61}

// step is the width of each of r's fanout partitions.
func (r hashRange) step(fanout int) uint64 {
	return (r.hi - r.lo + uint64(fanout) - 1) / uint64(fanout)
}

// sub returns the sub-range of r that partition p holds.
func (r hashRange) sub(p, fanout int) hashRange {
	lo := min(r.lo+uint64(p)*r.step(fanout), r.hi)
	return hashRange{lo, min(lo+r.step(fanout), r.hi)}
}

// partitionOf selects the partition of r that holds h: r is cut into
// fanout consecutive sub-ranges of equal width, so partitions
// aggregated in order emit lists in ascending hash order, and a
// recursive re-partition splits its parent's sub-range.
func partitionOf(h uint64, r hashRange, fanout int) int {
	return int((h - r.lo) / r.step(fanout))
}

// spillSet is a group of open partition spill files over one hash range
// at one recursion level. Every spill lives inside the build's staging
// directory, so even a removal that never runs (crash) is swept with the
// staging orphan by the next build.
type spillSet struct {
	fs    fsio.FS
	dir   string
	rng   hashRange
	files []fsio.File
	bufs  []*bufio.Writer
	sizes []int64
}

func newSpillSet(fsys fsio.FS, dir string, level int, rng hashRange, fanout int) (*spillSet, error) {
	s := &spillSet{
		fs:    fsys,
		dir:   dir,
		rng:   rng,
		files: make([]fsio.File, fanout),
		bufs:  make([]*bufio.Writer, fanout),
		sizes: make([]int64, fanout),
	}
	for p := 0; p < fanout; p++ {
		f, err := fsys.CreateTemp(dir, fmt.Sprintf("spill-l%d-p%d-*", level, p))
		if err != nil {
			s.cleanup()
			return nil, fmt.Errorf("index: create spill: %w", err)
		}
		s.files[p] = f
		s.bufs[p] = bufio.NewWriterSize(f, 1<<18)
	}
	return s, nil
}

func (s *spillSet) add(rec record) error {
	p := partitionOf(rec.Hash, s.rng, len(s.files))
	var buf [recordSize]byte
	encodeRecord(buf[:], rec)
	if _, err := s.bufs[p].Write(buf[:]); err != nil {
		return err
	}
	s.sizes[p] += recordSize
	return nil
}

func (s *spillSet) flush() error {
	for _, b := range s.bufs {
		if b == nil {
			continue
		}
		if err := b.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// cleanup closes and removes every spill file. It runs on success and
// on every error return path; removal failures leave orphans inside
// the staging directory only, which the next build sweeps.
func (s *spillSet) cleanup() {
	for i, f := range s.files {
		if f != nil {
			name := f.Name()
			f.Close()
			s.fs.Remove(name)
			s.files[i] = nil
		}
	}
}

// buildExternalFunc writes function fn's inverted file into w, spilling
// through dir.
func buildExternalFunc(r *corpus.Reader, fsys fsio.FS, dir string, fn int, f hash.Func, fanout int, opts BuildOptions, stats *BuildStats, w *segmentWriter) error {
	spill, err := newSpillSet(fsys, dir, 0, allHashes, fanout)
	if err != nil {
		return err
	}
	defer spill.cleanup()

	// Pass 1: stream texts, generate windows, spill records partitioned
	// by min-hash.
	rg := recordGen{f: f, t: opts.T}
	var recs []record
	streamErr := r.Stream(opts.BatchTokens, func(firstID uint32, texts [][]uint32) error {
		genStart := time.Now()
		for i, tokens := range texts {
			recs = rg.appendText(recs[:0], firstID+uint32(i), tokens)
			genDone := time.Now()
			stats.GenTime += genDone.Sub(genStart)
			for _, rec := range recs {
				if err := spill.add(rec); err != nil {
					return err
				}
			}
			stats.WindowsPerFunc[fn] += int64(len(recs))
			stats.Windows += int64(len(recs))
			genStart = time.Now()
			stats.IOTime += genStart.Sub(genDone) // spill writes are I/O
		}
		stats.GenTime += time.Since(genStart)
		return nil
	})
	if streamErr != nil {
		return streamErr
	}
	ioStart := time.Now()
	if err := spill.flush(); err != nil {
		return err
	}

	// Pass 2: aggregate each partition, in hash order, into the inverted
	// file.
	for p, f := range spill.files {
		if err := aggregatePartition(f, spill.sizes[p], 1, allHashes.sub(p, fanout), fsys, dir, opts, w); err != nil {
			return err
		}
	}
	if err := w.endFunc(); err != nil {
		return err
	}
	stats.IOTime += time.Since(ioStart)
	return nil
}

// maxRecursionDepth bounds recursive re-partitioning. A partition made of
// a single over-budget hash value can never split; after this depth it is
// aggregated in memory regardless of the budget.
const maxRecursionDepth = 6

// aggregatePartition loads one spill file, holding the records of the
// hashes in rng, sorts its records and appends complete inverted lists
// to w. Over-budget partitions are first re-partitioned over sub-ranges
// of rng (recursive partitioning).
func aggregatePartition(f fsio.File, size int64, level int, rng hashRange, fsys fsio.FS, dir string, opts BuildOptions, w *segmentWriter) error {
	if size == 0 {
		return nil
	}
	if size > opts.MemoryBudget && level <= maxRecursionDepth {
		return repartition(f, size, level, rng, fsys, dir, opts, w)
	}
	recs, err := readAllRecords(f, size)
	if err != nil {
		return err
	}
	// An in-place comparison sort, not Build's counting scatter: the
	// partition was sized to the memory budget, which has no room for the
	// scatter's second buffer.
	slices.SortFunc(recs, compareRecords)
	return addSortedRuns(w, recs)
}

// repartition splits an over-budget spill file into sub-partitions over
// consecutive sub-ranges of rng and aggregates each, in hash order. The
// sub-spills are cleaned up on success and on every error return path.
func repartition(f fsio.File, size int64, level int, rng hashRange, fsys fsio.FS, dir string, opts BuildOptions, w *segmentWriter) error {
	fanout := int(size/opts.MemoryBudget) + 1
	if fanout < 2 {
		fanout = 2
	}
	if fanout > 512 {
		fanout = 512
	}
	sub, err := newSpillSet(fsys, dir, level, rng, fanout)
	if err != nil {
		return err
	}
	defer sub.cleanup()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(f, 1<<18)
	var buf [recordSize]byte
	for read := int64(0); read < size; read += recordSize {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("index: read spill: %w", err)
		}
		if err := sub.add(decodeRecord(buf[:])); err != nil {
			return err
		}
	}
	if err := sub.flush(); err != nil {
		return err
	}
	for p, sf := range sub.files {
		if err := aggregatePartition(sf, sub.sizes[p], level+1, rng.sub(p, fanout), fsys, dir, opts, w); err != nil {
			return err
		}
	}
	return nil
}

func readAllRecords(f fsio.File, size int64) ([]record, error) {
	if size%recordSize != 0 {
		return nil, fmt.Errorf("index: spill size %d not a record multiple", size)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(bufio.NewReaderSize(f, 1<<20), data); err != nil {
		return nil, fmt.Errorf("index: load spill: %w", err)
	}
	recs := make([]record, size/recordSize)
	for i := range recs {
		recs[i] = decodeRecord(data[i*recordSize:])
	}
	return recs, nil
}
