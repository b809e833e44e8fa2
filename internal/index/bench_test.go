package index

import (
	"math"
	"path/filepath"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
)

func benchBuildCorpus(b *testing.B) *corpus.Corpus {
	b.Helper()
	return corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 300, MinLength: 100, MaxLength: 500,
		VocabSize: 32000, ZipfS: 1.07, Seed: 1,
	})
}

// The mutation benchmarks run at the repo benchmark's parameters (K=32,
// t=25, Zipf vocabulary of 32000, 100–700-token texts) on a quarter of
// its corpus: what `setup_s` and an ingest-churn cycle pay per build,
// append and compaction.
var mutationBenchOpts = BuildOptions{K: 32, Seed: 1, T: 25}

func mutationBenchCorpus(texts int, seed int64) *corpus.Corpus {
	return corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: texts, MinLength: 100, MaxLength: 700,
		VocabSize: 32000, ZipfS: 1.07, Seed: seed,
		DupRate: 0.15, DupSnippetLen: 64, DupMutateProb: 0.05,
	})
}

// BenchmarkBuild builds ~400 k tokens with the default Parallelism.
func BenchmarkBuild(b *testing.B) {
	c := mutationBenchCorpus(1000, 1)
	b.SetBytes(c.TotalTokens() * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(c, filepath.Join(b.TempDir(), "ix"), mutationBenchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildExternal builds BenchmarkBuild's corpus from its file
// under a 1 MiB MemoryBudget — several batches, then the merge — with
// the default Parallelism, and reports tokens/s and the batches built.
func BenchmarkBuildExternal(b *testing.B) {
	c := mutationBenchCorpus(1000, 1)
	path := filepath.Join(b.TempDir(), "c.tok")
	if err := corpus.WriteFile(c, path); err != nil {
		b.Fatal(err)
	}
	r, err := corpus.OpenReader(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	batches := &batchCountFS{FS: fsio.OS}
	opts := mutationBenchOpts
	opts.MemoryBudget, opts.FS = 1<<20, batches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildExternal(r, filepath.Join(b.TempDir(), "ix"), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.TotalTokens())*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
	b.ReportMetric(float64(batches.n.Load())/float64(b.N), "batches/op")
}

// BenchmarkAppend16 appends one 16-text segment, the benchmark's ingest
// batch, to a 250-text base.
func BenchmarkAppend16(b *testing.B) {
	base, batch := mutationBenchCorpus(250, 1), mutationBenchCorpus(16, 2)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "ix")
		if _, err := Build(base, dir, mutationBenchOpts); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Append(dir, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact9 merges a 250-text base and eight 16-text segments —
// the segment set ingest-churn compacts — into one.
func BenchmarkCompact9(b *testing.B) {
	base := mutationBenchCorpus(250, 1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "ix")
		if _, err := Build(base, dir, mutationBenchOpts); err != nil {
			b.Fatal(err)
		}
		for seg := 0; seg < 8; seg++ {
			if _, err := Append(dir, mutationBenchCorpus(16, int64(2+seg))); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := Compact(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnCycle runs one ingest-churn cycle's mutations on the
// 250-text base: eight 16-text appends, each followed by the reopen a
// server reload does, then a compaction and its reopen. Like a server
// reload, each reopen happens while the previous Index is still open,
// which is closed only once the new one serves, so a reopen shares the
// segment files the two have in common. Beside ns/op it reports the
// cycle's mutating filesystem operations (creates, writes, fsyncs,
// renames, removes) and file opens (files opened plus files read whole:
// manifests and tombstones).
func BenchmarkChurnCycle(b *testing.B) {
	base := mutationBenchCorpus(250, 1)
	batches := make([]*corpus.Corpus, 8)
	for i := range batches {
		batches[i] = mutationBenchCorpus(16, int64(2+i))
	}
	var ops, opens int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "ix")
		if _, err := Build(base, dir, mutationBenchOpts); err != nil {
			b.Fatal(err)
		}
		counter := fsio.NewFaultFS(fsio.OS)
		fsys := &readCountFS{FS: counter}
		serving, err := OpenFS(fsys, dir)
		if err != nil {
			b.Fatal(err)
		}
		reopen := func() {
			ix, err := OpenFS(fsys, dir)
			if err != nil {
				b.Fatal(err)
			}
			serving.Close()
			serving = ix
		}
		opensBefore := fsys.opened.Load() + fsys.readFiles.Load()
		b.StartTimer()
		for _, batch := range batches {
			if _, err := appendFS(fsys, dir, batch); err != nil {
				b.Fatal(err)
			}
			reopen()
		}
		if err := compactFS(fsys, dir); err != nil {
			b.Fatal(err)
		}
		reopen()
		b.StopTimer()
		serving.Close()
		ops += int64(counter.Ops())
		opens += fsys.opened.Load() + fsys.readFiles.Load() - opensBefore
	}
	b.ReportMetric(float64(ops)/float64(b.N), "fsops/op")
	b.ReportMetric(float64(opens)/float64(b.N), "opens/op")
}

func BenchmarkBuildDisk(b *testing.B) {
	c := benchBuildCorpus(b)
	b.SetBytes(c.TotalTokens() * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		if _, err := Build(c, dir, BuildOptions{K: 4, Seed: 3, T: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen opens a 1000-text index at the repo benchmark's
// parameters: what a reload after an ingest or compaction pays.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	if _, err := Build(mutationBenchCorpus(1000, 1), dir, mutationBenchOpts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		ix.Close()
	}
}

// BenchmarkReadList resolves every list once, then reads lists in turn
// through ReadRowsInto into one reused arena and reports the cost per
// posting read: full reads every list whole, as the gather stage does;
// probe reads one text's postings (the text in the list's middle) of
// each list with a zone map, as a deferred list's probe does. The
// index is built with a small LongListCutoff so that its longer lists
// carry zone maps.
func BenchmarkReadList(b *testing.B) {
	c := benchBuildCorpus(b)
	dir := b.TempDir()
	if _, err := Build(c, dir, BuildOptions{K: 1, Seed: 3, T: 50, ZoneMapStep: 64, LongListCutoff: 256}); err != nil {
		b.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	hashes := ix.Hashes(0)
	rows := make([]Rows, len(hashes))
	mid := make([]uint32, len(hashes))
	var zoned []int
	for i, h := range hashes {
		ix.ResolveRows(&rows[i], []uint64{h})
		ps, err := ix.ReadRowsInto(nil, &rows[i], 0, 0, math.MaxUint32, nil)
		if err != nil {
			b.Fatal(err)
		}
		mid[i] = ps[len(ps)/2].TextID
		if rows[i].Probeable(0) {
			zoned = append(zoned, i)
		}
	}
	if len(zoned) == 0 {
		b.Fatal("no list has a zone map")
	}
	all := make([]int, len(hashes))
	for i := range all {
		all[i] = i
	}
	for _, bc := range []struct {
		name  string
		lists []int
		probe bool
	}{{"full", all, false}, {"probe", zoned, true}} {
		b.Run(bc.name, func(b *testing.B) {
			var dst []Posting
			postings := 0
			for i := 0; i < b.N; i++ {
				l := bc.lists[i%len(bc.lists)]
				lo, hi := uint32(0), uint32(math.MaxUint32)
				if bc.probe {
					lo, hi = mid[l], mid[l]
				}
				if dst, err = ix.ReadRowsInto(dst[:0], &rows[l], 0, lo, hi, nil); err != nil {
					b.Fatal(err)
				}
				postings += len(dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
		})
	}
}

func BenchmarkVerifyIntegrity(b *testing.B) {
	c := benchBuildCorpus(b)
	dir := b.TempDir()
	stats, err := Build(c, dir, BuildOptions{K: 4, Seed: 3, T: 50})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	b.SetBytes(stats.BytesWritten)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.VerifyIntegrity(); err != nil {
			b.Fatal(err)
		}
	}
}
