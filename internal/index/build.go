package index

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	// zone map and, at query time, is deferred by the prefix filter
	// (Meta.LongListCutoff). Defaults to 4096.
	LongListCutoff int
	// Parallelism is the number of hash functions Build generates and
	// groups concurrently, in front of its one ordered writer. Peak
	// memory is Parallelism+1 functions' grouped records plus a worker's
	// ungrouped copy of one each (24 B a record, ~3 MB a function at
	// 1.6 M tokens). Defaults to GOMAXPROCS.
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
// generation and record grouping (the CPU side); IOTime covers spill and
// index file writes (the lower/upper bar split of Fig 2(i–l)). Build's
// GenTime is its workers' summed busy time divided by their number, so
// GenTime/wall stays in [0, 1]; the writer overlaps the workers, so
// GenTime+IOTime may exceed wall.
type BuildStats struct {
	Windows        int64
	WindowsPerFunc []int64
	BytesWritten   int64
	GenTime        time.Duration
	IOTime         time.Duration
}

// Build constructs the k inverted files for an in-memory corpus
// (Algorithm 1's main path) as one segment file and commits it
// atomically as dir. The build is staged into a temp directory next to
// dir, fsynced, and swapped in by rename, so a failed or killed build
// leaves any previous index at dir untouched and openable.
func Build(c *corpus.Corpus, dir string, opts BuildOptions) (*BuildStats, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	fam, err := hash.NewFamily(opts.K, opts.Seed)
	if err != nil {
		return nil, err
	}
	stats := &BuildStats{WindowsPerFunc: make([]int64, opts.K)}
	err = stagedBuild(opts.FS, dir, true, opts.meta(c.NumTexts(), c.TotalTokens()), func(path string) (segSum, error) {
		return buildSegment(c, fam, path, opts, stats)
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// buildSegment writes the segment file of corpus c at path through
// buildFuncs.
func buildSegment(c *corpus.Corpus, fam *hash.Family, path string, opts BuildOptions, stats *BuildStats) (segSum, error) {
	w, err := newSegmentWriter(opts.FS, path, opts.K, opts.ZoneMapStep, opts.LongListCutoff)
	if err != nil {
		return segSum{}, err
	}
	defer w.abort()
	if err := buildFuncs(c, fam, w, opts, stats); err != nil {
		return segSum{}, err
	}
	ioStart := time.Now()
	sum, err := w.finish()
	stats.IOTime += time.Since(ioStart)
	stats.BytesWritten = sum.size
	return sum, err
}

// buildFuncs is Build's two-stage pipeline. Workers each take a whole
// hash function and do its CPU side — hash, generate, group — and the
// calling goroutine alone touches the filesystem, writing the finished
// functions into w in function order: the writes come in the order and
// number of a one-function-at-a-time build, whatever the worker count. A
// worker draws a record buffer from free before it claims the next
// function and the writer returns it once the function is written, so
// at most workers+1 functions are in flight and the lowest unwritten one
// always holds a buffer.
func buildFuncs(c *corpus.Corpus, fam *hash.Family, w *segmentWriter, opts BuildOptions, stats *BuildStats) error {
	workers := min(opts.Parallelism, opts.K)
	free := make(chan []record, workers+1) // the in-flight bound, see above
	for i := 0; i < cap(free); i++ {
		free <- nil
	}
	built := make([]chan []record, opts.K)
	for fn := range built {
		built[fn] = make(chan []record, 1)
	}
	var (
		next atomic.Int64 // next function to claim
		busy atomic.Int64 // summed worker nanoseconds
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			rg := recordGen{t: opts.T}
			var gen []record // the function's records in generation order
			for {
				var out []record
				select {
				case out = <-free:
				case <-stop:
					return
				}
				fn := int(next.Add(1)) - 1
				if fn >= opts.K {
					return
				}
				start := time.Now()
				rg.f = fam.Func(fn)
				gen = gen[:0]
				for id := 0; id < c.NumTexts(); id++ {
					gen = rg.appendText(gen, uint32(id), c.Text(uint32(id)))
				}
				out = groupByHash(gen, out)
				busy.Add(int64(time.Since(start)))
				built[fn] <- out
			}
		}()
	}
	// Stop the workers and wait them out on every return path: a failed
	// write must not leave one running after Build has returned.
	defer wg.Wait()
	defer close(stop)

	for fn := 0; fn < opts.K; fn++ {
		recs := <-built[fn]
		ioStart := time.Now()
		if err := addSortedRuns(w, recs); err != nil {
			return err
		}
		if err := w.endFunc(); err != nil {
			return err
		}
		stats.IOTime += time.Since(ioStart)
		stats.WindowsPerFunc[fn] = int64(len(recs))
		stats.Windows += int64(len(recs))
		free <- recs
	}
	stats.GenTime = time.Duration(busy.Load() / int64(workers))
	return nil
}

// recordGen turns texts into the records of hash function f — tokens →
// window.Hashes → compact windows → records — on scratch reused from
// text to text. Build and BuildExternal both generate with it.
type recordGen struct {
	f       hash.Func
	t       int
	vals    []uint64
	ws      []window.Window
	scratch window.Scratch
}

// appendText appends the records of text id to dst, in ascending C —
// which within one hash value is ascending L (window.Scratch.Generate).
// Texts shorter than the length threshold have none.
func (g *recordGen) appendText(dst []record, id uint32, tokens []uint32) []record {
	if len(tokens) < g.t {
		return dst
	}
	g.vals = window.Hashes(tokens, g.f, g.vals)
	g.ws = g.scratch.Generate(g.vals, g.t, g.ws[:0])
	for _, w := range g.ws {
		dst = append(dst, record{
			Hash:    g.vals[w.C],
			Posting: Posting{TextID: id, L: uint32(w.L), C: uint32(w.C), R: uint32(w.R)},
		})
	}
	return dst
}

// addSortedRuns feeds runs of equal-hash records from a sorted slice to
// the writer.
func addSortedRuns(w *segmentWriter, recs []record) error {
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
