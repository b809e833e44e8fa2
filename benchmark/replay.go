package main

import (
	"sort"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
	"ndss/internal/window"
)

// The stand-alone layer replays of the traced run: each times one public
// function of one layer over inputs of the run, with nothing else
// running.

// replaySketch times Family.SketchAppend over the query list.
func replaySketch(p *prepared) float64 {
	var dst []uint64
	tokens := 0
	t0 := time.Now()
	for rep := 0; rep < replayReps; rep++ {
		for _, q := range p.qs.tokens {
			dst, _ = p.fam.SketchAppend(q, dst[:0]) // queries are never empty
			tokens += len(q)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(tokens)
}

const replayReps = 4

// replayWindows times compact-window generation under all k functions
// over a sample of the corpus, per token of text, and counts the windows
// per token.
func replayWindows(sc scale, p *prepared) (nsPerToken, windowsPerToken float64) {
	n := sc.sampleTxts
	if n > p.corpus.NumTexts() {
		n = p.corpus.NumTexts()
	}
	tokens, windows := 0, 0
	t0 := time.Now()
	for id := 0; id < n; id++ {
		text := p.corpus.Text(uint32(id))
		tokens += len(text)
		for fn := 0; fn < hashK; fn++ {
			windows += len(window.GenerateTokens(text, p.fam.Func(fn), lengthT))
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(tokens), float64(windows) / float64(tokens)
}

type kernelTimes struct {
	readList, collisionCount, intervalScan float64
}

// The kernel replay feeds CollisionCount and IntervalScan, for each
// query, the replayGroups texts that hold the most of the compact
// windows read, if they hold at least replayGroupMin, and passes
// replayGroupMin as alpha. That is below ceil(k*theta), so that the
// unplanted queries of query-miss, which rarely gather that many windows
// in one text, give the kernels work too.
const (
	replayGroupMin = 4
	replayGroups   = 16
)

// replayKernels reads, for each of the first queries, the k lists its
// sketch selects (ReadListInto), groups the postings by text itself,
// and replays CollisionCount and IntervalScan over the largest groups.
func replayKernels(dir string, p *prepared) (kernelTimes, error) {
	var kt kernelTimes
	ix, err := index.Open(dir)
	if err != nil {
		return kt, err
	}
	defer ix.Close()
	queries := p.qs.tokens
	if len(queries) > replayQueries {
		queries = queries[:replayQueries]
	}
	var (
		sketch                   []uint64
		all, group               []index.Posting
		ivs                      []search.Interval
		readNS, ccNS, isNS       int64
		postings, fed, intervals int
	)
	perText := make(map[uint32]int)
	for _, q := range queries {
		if sketch, err = p.fam.SketchAppend(q, sketch[:0]); err != nil {
			return kt, err
		}
		all = all[:0]
		for fn, h := range sketch {
			t0 := time.Now()
			all, err = ix.ReadListInto(all, fn, h, nil)
			readNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return kt, err
			}
		}
		postings += len(all)

		clear(perText)
		for _, w := range all {
			perText[w.TextID]++
		}
		var texts []uint32
		for id, n := range perText {
			if n >= replayGroupMin {
				texts = append(texts, id)
			}
		}
		sort.Slice(texts, func(a, b int) bool {
			if perText[texts[a]] != perText[texts[b]] {
				return perText[texts[a]] > perText[texts[b]]
			}
			return texts[a] < texts[b]
		})
		if len(texts) > replayGroups {
			texts = texts[:replayGroups]
		}
		for _, id := range texts {
			group, ivs = group[:0], ivs[:0]
			for _, w := range all {
				if w.TextID == id {
					group = append(group, w)
					ivs = append(ivs, search.Interval{Lo: int32(w.L), Hi: int32(w.C)})
				}
			}
			t0 := time.Now()
			search.CollisionCount(group, replayGroupMin)
			ccNS += time.Since(t0).Nanoseconds()
			fed += len(group)
			t0 = time.Now()
			search.IntervalScan(ivs, replayGroupMin)
			isNS += time.Since(t0).Nanoseconds()
			intervals += len(ivs)
		}
	}
	kt.readList = float64(readNS) / float64(max(postings, 1))
	kt.collisionCount = float64(ccNS) / float64(max(fed, 1))
	kt.intervalScan = float64(isNS) / float64(max(intervals, 1))
	return kt, nil
}

const replayQueries = 128

type lifecycle struct {
	openMS, appendMS, compactMS, compactBytes float64
}

// replayLifecycle times Open, Append of one ingest batch and Compact on
// an idle index directory, with no server around them.
func replayLifecycle(dir string, batches [][][]uint32) (lifecycle, error) {
	var lc lifecycle
	var opens []float64
	for i := 0; i < lifecycleReps; i++ {
		t0 := time.Now()
		ix, err := index.Open(dir)
		if err != nil {
			return lc, err
		}
		opens = append(opens, ms(time.Since(t0)))
		if err := ix.Close(); err != nil {
			return lc, err
		}
	}
	lc.openMS = median(opens)
	var appends []float64
	for i := 0; i < lifecycleReps && i < len(batches); i++ {
		t0 := time.Now()
		if _, err := index.Append(dir, corpus.New(batches[i])); err != nil {
			return lc, err
		}
		appends = append(appends, ms(time.Since(t0)))
	}
	lc.appendMS = median(appends)
	t0 := time.Now()
	if err := index.Compact(dir); err != nil {
		return lc, err
	}
	lc.compactMS = ms(time.Since(t0))
	sz, err := measureIndex([]string{dir})
	lc.compactBytes = float64(sz.bytes)
	return lc, err
}

const lifecycleReps = 5
