package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/search"
)

// Fixed system parameters. Every index is built and every query is run
// with these, and every server.Config and shard.Config field stays at
// its default, so the benchmark measures what users get.
const (
	vocabSize  = 32000
	zipfS      = 1.07
	hashK      = 32
	lengthT    = 25
	familySeed = 1
	queryLen   = 64
	queryTheta = 0.8
	mutateProb = 0.03
)

var (
	buildOpts  = index.BuildOptions{K: hashK, Seed: familySeed, T: lengthT}
	searchOpts = search.Options{Theta: queryTheta, PrefixFilter: true}
)

// scale sizes a run. fullScale is what BENCHMARK.json measures;
// shortScale exists so the tests can drive every code path in seconds.
type scale struct {
	texts        int // corpus of the three read-only workloads
	churnBase    int // base corpus of ingest-churn
	queries      int // query list of query-hit, query-miss and ingest-churn, warm-up included
	shardQueries int // query list of serve-sharded, hot set and warm-up included
	hotSet       int // cacheable queries of serve-sharded
	batchTexts   int // texts per ingest batch
	// ingestEvery is the period of the traced run's open-loop ingest
	// schedule.
	ingestEvery  time.Duration
	churnQueries int // queries between two ingests of the untraced ingest-churn run
	setups       int // timed set-ups per run; the median is reported
	minRounds    int // fewest rounds (ingest-churn: cycles) a run may measure
	// mixTol is how far the share of a serve-sharded round's replies that
	// came from the result cache may lie from hotShare. The tests' query
	// list fits the cache whole, so there every reply may.
	mixTol     float64
	warmup     int // untimed queries that end a set-up
	oracleQs   int // queries checked against brute force
	oracleTxts int // texts of the brute-force sub-corpus, per query
	traceOps   int // ops of the traced round
	probeTexts int // corpus of a probe-scale topology in a traced run
	probeOps   int // requests sent to a probe-scale topology
	probeIngs  int // scheduled ingests into a probe-scale churn topology
	traceIngs  int // scheduled ingests of ingest-churn's own traced passes
	quietIngs  int // quiet ingests that end a traced churn pass
	sampleTxts int // texts of the window-generation replay
}

// At full scale a round is 2048 queries on query-hit and query-miss and
// 770 requests on serve-sharded, and a cycle of ingest-churn 200 queries
// (the first of its list).
var fullScale = scale{
	texts: 4000, churnBase: 1000, queries: 2304, shardQueries: 840, hotSet: 16,
	batchTexts: 16, ingestEvery: 600 * time.Millisecond, churnQueries: 25, setups: 3, minRounds: 2, mixTol: 0.02, warmup: 256,
	oracleQs: 64, oracleTxts: 2,
	traceOps: 768, probeTexts: 600, probeOps: 400, probeIngs: 10, traceIngs: 12, quietIngs: 16,
	sampleTxts: 200,
}

var shortScale = scale{
	texts: 80, churnBase: 40, queries: 32, shardQueries: 32, hotSet: 4,
	batchTexts: 2, ingestEvery: 25 * time.Millisecond, churnQueries: 3, setups: 2, minRounds: 1, mixTol: 1, warmup: 8,
	oracleQs: 4, oracleTxts: 1,
	traceOps: 24, probeTexts: 40, probeOps: 24, probeIngs: 9, traceIngs: 9, quietIngs: 2,
	sampleTxts: 10,
}

// Sub-seeds keep the streams of one run independent of each other.
const (
	streamCorpus = iota
	streamHit
	streamMiss
	streamOps
	streamIngest
	streamOracle
)

// subSeed derives the seed of one input stream from the run seed
// (splitmix64), so that neighbouring run seeds share no stream.
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func synthConfig(texts int, seed int64) corpus.SynthConfig {
	return corpus.SynthConfig{
		NumTexts: texts, MinLength: 100, MaxLength: 700,
		VocabSize: vocabSize, ZipfS: zipfS, Seed: seed,
		DupRate: 0.15, DupSnippetLen: 64, DupMutateProb: 0.05,
	}
}

func synthCorpus(texts int, seed int64) (*corpus.Corpus, error) {
	return corpus.Synthesize(synthConfig(texts, subSeed(seed, streamCorpus)))
}

// planted is where a hit query was copied from.
type planted struct {
	text  uint32
	start int32
}

// hitQueries returns n near-duplicates of corpus regions. Each has at
// least one true match by Definition 2: the region it was copied from
// still collides with it on ceil(k*theta) min-hashes, which is checked
// here with the hash family alone, not with the system under test.
func hitQueries(c *corpus.Corpus, fam *hash.Family, n int, seed int64) ([][]uint32, []planted, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, streamHit)))
	beta := beta()
	qs := make([][]uint32, 0, n)
	at := make([]planted, 0, n)
	var qSketch, srcSketch []uint64
	for draws := 0; len(qs) < n; draws++ {
		if draws > 100*n {
			return nil, nil, fmt.Errorf("hit queries: %d draws gave only %d of %d queries", draws, len(qs), n)
		}
		q, id, start, ok := corpus.PlantQuery(c, queryLen, mutateProb, vocabSize, rng)
		if !ok {
			continue
		}
		var err error
		if qSketch, err = fam.SketchAppend(q, qSketch[:0]); err != nil {
			return nil, nil, err
		}
		src := c.Sequence(id, start, start+queryLen-1)
		if srcSketch, err = fam.SketchAppend(src, srcSketch[:0]); err != nil {
			return nil, nil, err
		}
		if hash.Collisions(qSketch, srcSketch) < beta {
			continue
		}
		qs = append(qs, q)
		at = append(at, planted{text: id, start: start})
	}
	return qs, at, nil
}

// missQueries returns n queries drawn from the corpus's token
// distribution with nothing planted.
func missQueries(n int, seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(subSeed(seed, streamMiss)))
	zipf := rand.NewZipf(rng, zipfS, 1, vocabSize-1)
	qs := make([][]uint32, n)
	for i := range qs {
		q := make([]uint32, queryLen)
		for j := range q {
			q[j] = uint32(zipf.Uint64())
		}
		qs[i] = q
	}
	return qs
}

// ingestBatches returns n batches of fresh texts, synthesized apart
// from the base corpus.
func ingestBatches(n, batchTexts int, seed int64) ([][][]uint32, error) {
	if n == 0 {
		return nil, nil
	}
	c, err := corpus.Synthesize(synthConfig(n*batchTexts, subSeed(seed, streamIngest)))
	if err != nil {
		return nil, err
	}
	out := make([][][]uint32, n)
	for i := range out {
		b := make([][]uint32, batchTexts)
		for j := range b {
			b[j] = c.Text(uint32(i*batchTexts + j))
		}
		out[i] = b
	}
	return out, nil
}

// beta is the collision count a match needs, ceil(k*theta).
func beta() int { return int(math.Ceil(hashK * queryTheta)) }
