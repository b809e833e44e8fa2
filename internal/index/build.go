package index

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
	"ndss/internal/hash"
	"ndss/internal/window"
)

// BuildOptions configures index construction.
type BuildOptions struct {
	// K is the number of hash functions (Definition 2's k). Required.
	K int
	// Seed derives the hash family.
	Seed int64
	// T is the length threshold: only sequences of at least T tokens are
	// indexed. Required.
	T int
	// ZoneMapStep is the number of postings per zone entry in long
	// lists. Defaults to 1024.
	ZoneMapStep int
	// LongListCutoff is the posting count above which a list receives a
	// zone map. Defaults to 4096.
	LongListCutoff int
	// Parallelism bounds the number of window-generation goroutines in
	// Build. Defaults to GOMAXPROCS.
	Parallelism int
	// MemoryBudget bounds the bytes of spill records aggregated in
	// memory at once during BuildExternal. Defaults to 256 MiB.
	MemoryBudget int64
	// BatchTokens is the streaming batch size in tokens for
	// BuildExternal. Defaults to 4M tokens.
	BatchTokens int
	// FS is the filesystem the build writes through. Defaults to the
	// real filesystem; tests inject fault-carrying implementations.
	FS fsio.FS
}

func (o *BuildOptions) setDefaults() error {
	if o.K <= 0 {
		return fmt.Errorf("index: K must be positive, got %d", o.K)
	}
	if o.T <= 0 {
		return fmt.Errorf("index: T must be positive, got %d", o.T)
	}
	if o.ZoneMapStep == 0 {
		o.ZoneMapStep = 1024
	}
	if o.ZoneMapStep < 1 {
		return fmt.Errorf("index: ZoneMapStep must be positive, got %d", o.ZoneMapStep)
	}
	if o.LongListCutoff == 0 {
		o.LongListCutoff = 4096
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.MemoryBudget <= 0 {
		o.MemoryBudget = 256 << 20
	}
	if o.BatchTokens <= 0 {
		o.BatchTokens = 4 << 20
	}
	if o.FS == nil {
		o.FS = fsio.OS
	}
	return nil
}

// fsys returns the filesystem the build writes through.
func (o *BuildOptions) fsys() fsio.FS {
	if o.FS == nil {
		return fsio.OS
	}
	return o.FS
}

// meta describes an index built with these options over a corpus of the
// given size.
func (o *BuildOptions) meta(numTexts int, totalTokens int64) Meta {
	return Meta{
		K: o.K, Seed: o.Seed, T: o.T,
		NumTexts: numTexts, TotalTokens: totalTokens,
		ZoneMapStep: o.ZoneMapStep, LongListCutoff: o.LongListCutoff,
	}
}

// BuildStats reports what a build did. GenTime covers hashing, window
// generation and record sorting (the CPU side); IOTime covers spill and
// index file writes (the lower/upper bar split of Fig 2(i–l)).
type BuildStats struct {
	Windows        int64
	WindowsPerFunc []int64
	BytesWritten   int64
	GenTime        time.Duration
	IOTime         time.Duration
}

// Build constructs the k inverted files for an in-memory corpus
// (Algorithm 1's main path) and commits them atomically as dir. The
// build is staged into a temp directory next to dir, fsynced, and
// swapped in by rename, so a failed or killed build leaves any
// previous index at dir untouched and openable.
func Build(c *corpus.Corpus, dir string, opts BuildOptions) (*BuildStats, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	fam, err := hash.NewFamily(opts.K, opts.Seed)
	if err != nil {
		return nil, err
	}
	fsys := opts.fsys()
	stats := &BuildStats{WindowsPerFunc: make([]int64, opts.K)}
	err = stagedBuild(fsys, dir, true, func(staging string) (Meta, []fileSum, error) {
		sums := make([]fileSum, opts.K)
		for fn := 0; fn < opts.K; fn++ {
			recs, genDur := generateRecords(c, fam.Func(fn), opts.T, opts.Parallelism)
			sortStart := time.Now()
			sortRecords(recs)
			genDur += time.Since(sortStart)
			stats.GenTime += genDur
			stats.WindowsPerFunc[fn] = int64(len(recs))
			stats.Windows += int64(len(recs))

			ioStart := time.Now()
			sum, err := writeLists(fsys, staging, fn, recs, opts)
			if err != nil {
				return Meta{}, nil, err
			}
			stats.IOTime += time.Since(ioStart)
			stats.BytesWritten += sum.size
			sums[fn] = sum
		}
		return opts.meta(c.NumTexts(), c.TotalTokens()), sums, nil
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// generateRecords produces the (hash, posting) records of one hash
// function over the whole corpus, fanning text chunks out to workers.
func generateRecords(c *corpus.Corpus, f hash.Func, t, parallelism int) ([]record, time.Duration) {
	start := time.Now()
	n := c.NumTexts()
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		recs := appendTextRecords(nil, c, 0, n, f, t)
		return recs, time.Since(start)
	}
	chunk := (n + parallelism - 1) / parallelism
	parts := make([][]record, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = appendTextRecords(nil, c, lo, hi, f, t)
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	recs := make([]record, 0, total)
	for _, p := range parts {
		recs = append(recs, p...)
	}
	return recs, time.Since(start)
}

// appendTextRecords generates windows for texts [lo, hi) and appends
// their records to dst.
func appendTextRecords(dst []record, c *corpus.Corpus, lo, hi int, f hash.Func, t int) []record {
	var vals []uint64
	var ws []window.Window
	for id := lo; id < hi; id++ {
		tokens := c.Text(uint32(id))
		if len(tokens) < t {
			continue
		}
		vals = window.Hashes(tokens, f, vals)
		ws = window.GenerateLinear(vals, t, ws[:0])
		for _, w := range ws {
			dst = append(dst, record{
				Hash: vals[w.C],
				Posting: Posting{
					TextID: uint32(id),
					L:      uint32(w.L),
					C:      uint32(w.C),
					R:      uint32(w.R),
				},
			})
		}
	}
	return dst
}

// writeLists writes sorted records as one inverted file and returns
// its size and checksums.
func writeLists(fsys fsio.FS, dir string, fn int, recs []record, opts BuildOptions) (fileSum, error) {
	w, err := newFileWriter(fsys, indexPath(dir, fn), fn, opts.ZoneMapStep, opts.LongListCutoff)
	if err != nil {
		return fileSum{}, err
	}
	if err := addSortedRuns(w, recs); err != nil {
		w.abort()
		return fileSum{}, err
	}
	return w.finish()
}

// addSortedRuns feeds runs of equal-hash records from a sorted slice to
// the writer.
func addSortedRuns(w *fileWriter, recs []record) error {
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Hash == recs[i].Hash {
			j++
		}
		if err := w.addList(recs[i].Hash, recs[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

func indexPath(dir string, fn int) string {
	return dir + string(os.PathSeparator) + funcFileName(fn)
}
