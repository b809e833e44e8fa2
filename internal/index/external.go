package index

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/hash"
)

// BuildExternal constructs the index for a corpus file that may not fit
// in memory (§3.4's large-corpus path). It streams the corpus once, in
// batches sized to MemoryBudget, builds each batch with Build's pipeline
// into a batch index, and merges the batch indexes — each batch's text
// ids shifted by its first text's id — into one segment file, so every
// list is written once, in hash order, and the file's bytes equal
// Build's. A corpus that fits in one batch is built in place, with no
// batch indexes and no merge.
//
// Like Build, the whole construction is staged in a temp directory next
// to dir and committed atomically. The batch indexes live inside that
// staging directory and are removed before the commit; a crashed run's
// are swept with its staging directory when the next build starts.
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
	err = stagedBuild(fsys, dir, opts.meta(r.NumTexts(), r.TotalTokens()), func(path string) (segSum, error) {
		var (
			whole   = corpus.New(nil) // the corpus, when it is one batch
			batches []*Index
			offsets []uint32
		)
		closeBatches := func() {
			for _, b := range batches {
				b.Close()
			}
			batches = nil
		}
		defer closeBatches()
		workspace := filepath.Join(filepath.Dir(path), "batches")
		err := r.Stream(opts.batchTokens(), func(firstID uint32, texts [][]uint32) error {
			if len(texts) == r.NumTexts() {
				// The token slices are ours to keep; only the outer
				// slice is reused.
				whole = corpus.New(slices.Clone(texts))
				return nil
			}
			c := corpus.New(texts)
			bdir := filepath.Join(workspace, fmt.Sprintf("%06d", len(batches)))
			err := stagedBuild(fsys, bdir, opts.meta(c.NumTexts(), c.TotalTokens()), func(path string) (segSum, error) {
				return buildSegment(c, fam, path, opts, stats)
			})
			if err != nil {
				return err
			}
			b, err := OpenFS(fsys, bdir)
			if err != nil {
				return err
			}
			batches, offsets = append(batches, b), append(offsets, firstID)
			return nil
		})
		if err != nil {
			return segSum{}, err
		}
		if batches == nil {
			return buildSegment(whole, fam, path, opts, stats)
		}
		ioStart := time.Now()
		sum, err := mergeSegment(fsys, batches, offsets, path)
		closeBatches()
		if err == nil {
			err = fsys.RemoveAll(workspace)
		}
		stats.IOTime += time.Since(ioStart)
		stats.BytesWritten = sum.size
		return sum, err
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// batchTokens is how many corpus tokens BuildExternal builds at once so
// that a batch fits MemoryBudget: 4 B a token plus what Build holds per
// record of a function, ≈2/(T+1) records a token. Each worker holds its
// function's records and the grouping's sort scratch; each of the
// workers+1 functions in flight holds its grouped postings and a run
// table of at most one row a record.
func (o *BuildOptions) batchTokens() int {
	workers := int64(min(o.Parallelism, o.K))
	perRecord := workers*2*recordSize + (workers+1)*(postingSize+runSize)
	n := o.MemoryBudget * int64(o.T+1) / (4*int64(o.T+1) + 2*perRecord)
	return int(max(n, 1))
}
