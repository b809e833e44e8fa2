package search

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/obs"
)

// TextSource resolves a text id to its token sequence. *corpus.Corpus
// and *corpus.Reader both satisfy it. It is only needed for
// verification; a Searcher with a nil source answers unverified queries.
type TextSource interface {
	ReadText(id uint32) ([]uint32, error)
}

// IndexReader is the index access surface the query processor needs,
// and nothing more. *index.Index implements it; tests wrap that to
// inject cancellation, failures and delays.
//
// The reads append into a caller-supplied buffer and report the read's
// bytes/latency into a caller-supplied sink (which may be nil);
// implementations must never alias internal storage in the appended
// postings, so callers can reuse the buffer across reads. The private
// sink is what makes per-query I/O accounting exact under concurrency.
//
// Every list read must come back non-decreasing in (global) TextID, with
// a text's postings adjacent: the count stage merges the short lists on
// that order instead of grouping them (mergeCandidates).
type IndexReader interface {
	K() int
	Meta() index.Meta
	Family() *hash.Family
	ListLength(fn int, h uint64) int
	// HasZoneMap reports whether per-text probes into the list for hash
	// h of function fn stay within about one zone block each: some
	// segment's portion of the list is zone-mapped and every portion
	// without a zone map is at most one ZoneMapStep long (a probe
	// touches only the segment owning the text). The
	// planner defers no other list: probing it would read a long portion
	// whole per candidate, worse than reading the list once up front.
	HasZoneMap(fn int, h uint64) bool
	ReadListInto(dst []index.Posting, fn int, h uint64, sink *index.IOStats) ([]index.Posting, error)
	ReadListForTextInto(dst []index.Posting, fn int, h uint64, textID uint32, sink *index.IOStats) ([]index.Posting, error)
}

// Options configures one search.
type Options struct {
	// Theta is the Jaccard similarity threshold in (0, 1]. A sequence
	// qualifies when it shares at least ceil(K*Theta) of the K min-hash
	// values with the query (Definition 2).
	Theta float64
	// MinLength overrides the minimum reported sequence length. It must
	// be at least the index's length threshold T; zero means T.
	MinLength int
	// PrefixFilter defers lists longer than the index's build-time
	// Meta().LongListCutoff — the lists the build gave zone maps — to
	// per-candidate probes instead of reading them fully (§3.5). At most
	// beta-1 lists are deferred, the longest first.
	PrefixFilter bool
	// Verify computes the exact distinct Jaccard similarity between the
	// query and each reported span (requires a TextSource).
	Verify bool
	// KeepRects retains the raw collision rectangles on each match for
	// callers that need exact sequence enumeration.
	KeepRects bool
	// Trace attaches the query's full span list (stage spans plus one
	// span per deferred-list probe) to Stats.Spans. The per-stage
	// StageTimes decomposition is always recorded regardless; Trace only
	// controls whether the detailed spans are copied out, which costs
	// one allocation per query.
	Trace bool
}

// ValidationError is a query the caller got wrong (invalid Options, an
// empty query, a non-positive top-k N): it fails alike on every index
// and replica, so a server answers it 400 and any other failure 500.
type ValidationError string

func (e ValidationError) Error() string { return string(e) }

// validate checks the options against the index metadata before any
// list I/O happens and resolves the effective minimum match length.
// hasSource reports whether a TextSource is attached (required by
// Verify).
func (o Options) validate(meta index.Meta, hasSource bool) (minLen int, err error) {
	if !(o.Theta > 0 && o.Theta <= 1) { // also rejects NaN
		return 0, ValidationError(fmt.Sprintf("search: Theta must be in (0, 1], got %v", o.Theta))
	}
	if o.MinLength < 0 {
		return 0, ValidationError(fmt.Sprintf("search: MinLength must not be negative, got %d", o.MinLength))
	}
	if o.Verify && !hasSource {
		return 0, ValidationError("search: Verify requires a TextSource")
	}
	minLen = o.MinLength
	if minLen == 0 {
		minLen = meta.T
	}
	if minLen < meta.T {
		return 0, ValidationError(fmt.Sprintf("search: MinLength %d below index length threshold %d", minLen, meta.T))
	}
	return minLen, nil
}

// Match is one reported near-duplicate region: the merged span of
// overlapping qualifying sequences in one text (the paper's Remark
// merges overlapping near-duplicates so reports are disjoint).
type Match struct {
	TextID uint32
	// Start and End delimit the merged span, 0-based inclusive.
	Start, End int32
	// Collisions is the best (maximum) min-hash collision count among
	// the merged sequences.
	Collisions int
	// EstJaccard is Collisions / K, the estimated Jaccard similarity.
	EstJaccard float64
	// Jaccard is the exact distinct Jaccard similarity between the query
	// and the span, filled only when Options.Verify is set.
	Jaccard float64
	// Rects holds the raw qualifying rectangles when Options.KeepRects
	// is set.
	Rects []Rect
}

// NumStages is the number of pipeline stages in StageNames/StageTimes.
const NumStages = 6

// StageNames lists the pipeline stages in execution order. Indexes
// align with StageTimes.Durations, so consumers (histograms, traces,
// CLIs) can iterate the decomposition without knowing the stage set.
var StageNames = [NumStages]string{"sketch", "plan", "gather", "count", "merge", "verify"}

// StageTimes is the per-stage wall-time decomposition of one query
// through the pipeline. Count excludes the merge time spent inside
// countText (reported separately as Merge), so the six stages sum to
// approximately Stats.Total minus orchestration overhead. The _ns JSON
// names are the stable wire format served by /search.
type StageTimes struct {
	Sketch time.Duration `json:"sketch_ns"`
	Plan   time.Duration `json:"plan_ns"`
	Gather time.Duration `json:"gather_ns"`
	Count  time.Duration `json:"count_ns"`
	Merge  time.Duration `json:"merge_ns"`
	Verify time.Duration `json:"verify_ns"`
}

// Durations returns the stage durations in StageNames order.
func (t StageTimes) Durations() [NumStages]time.Duration {
	return [NumStages]time.Duration{t.Sketch, t.Plan, t.Gather, t.Count, t.Merge, t.Verify}
}

// Add returns the element-wise sum of two decompositions, for
// aggregating stage splits over a batch.
func (t StageTimes) Add(o StageTimes) StageTimes {
	return StageTimes{
		Sketch: t.Sketch + o.Sketch,
		Plan:   t.Plan + o.Plan,
		Gather: t.Gather + o.Gather,
		Count:  t.Count + o.Count,
		Merge:  t.Merge + o.Merge,
		Verify: t.Verify + o.Verify,
	}
}

// Stats describes one query's execution for the latency-split
// experiments (Fig 3). IOBytes/IOTime come from the query's private
// I/O sink, so they are exact for this query even when many queries
// run concurrently.
type Stats struct {
	K          int
	Beta       int           // required collisions ceil(K*Theta)
	ShortLists int           // lists loaded fully
	LongLists  int           // lists deferred to zone-map probes
	Candidates int           // texts surviving the short-list filter
	Probed     int           // texts probed in long lists
	Rects      int           // qualifying rectangles
	Matches    int           // merged spans reported
	IOBytes    int64         // bytes read from the index by this query
	IOTime     time.Duration // time this query spent in index reads
	CPUTime    time.Duration // Total minus IOTime
	Total      time.Duration

	// StageTimes decomposes Total across the pipeline stages. Always
	// recorded; the per-stage timing costs a handful of monotonic clock
	// reads per query.
	StageTimes StageTimes
	// Spans is the query's full trace (stage spans plus per-probe
	// spans), copied out only when Options.Trace is set.
	Spans []obs.Span

	// ShardsTotal and ShardsAnswered describe scatter–gather fan-out
	// when the query ran through a shard coordinator: ShardsTotal shards
	// were asked, ShardsAnswered answered within their budget. Both are
	// zero for unsharded queries; ShardsAnswered < ShardsTotal marks a
	// partial result.
	ShardsTotal    int
	ShardsAnswered int
	// PerShard attributes the query's work to each shard (mirroring
	// IOStats.PerSegment for segments): one entry per shard in shard
	// order, including the shards that missed their budget. Nil for
	// unsharded queries.
	PerShard []ShardStats

	// Attempts is a hand-off field between a replica-set shard client
	// and its coordinator: the client records every replica attempt the
	// leg made (primary, retries, hedges) here, and the coordinator
	// moves them into the leg's PerShard entry during merge. Nil
	// everywhere else.
	Attempts []ShardAttempt
}

// Partial reports whether this is a sharded result missing at least one
// shard's answer.
func (s *Stats) Partial() bool {
	return s.ShardsTotal > 0 && s.ShardsAnswered < s.ShardsTotal
}

// ShardStats is one shard's share of a scatter–gather query: its
// pipeline stage split, its I/O, and whether it answered within the
// per-shard budget.
type ShardStats struct {
	// Shard names the shard (its index directory or URL).
	Shard string `json:"shard"`
	// Answered is false when the shard was skipped: it missed the
	// per-shard deadline budget, was saturated, or failed.
	Answered bool `json:"answered"`
	// Err is why the shard went unanswered, "" when it answered.
	Err string `json:"err,omitempty"`
	// Matches is how many merged spans the shard contributed.
	Matches int `json:"matches"`
	// IOBytes/IOTime are the shard's exact per-query I/O.
	IOBytes int64         `json:"io_bytes"`
	IOTime  time.Duration `json:"io_time_ns"`
	// Total is the shard's wall time as observed by the coordinator
	// (queueing plus execution plus, for remote shards, the network).
	Total time.Duration `json:"total_ns"`
	// StageTimes is the shard's own pipeline decomposition.
	StageTimes StageTimes `json:"stages"`
	// SpanID is the leg's span id in the query's distributed trace,
	// assigned by the coordinator when the request context carries a
	// trace context. "" otherwise.
	SpanID string `json:"span_id,omitempty"`
	// Start is the leg's launch offset from the fan-out start, so
	// attempt and remote-span timings can be placed on the query's
	// time axis.
	Start time.Duration `json:"start_ns,omitempty"`
	// Spans is the shard's own span list (remote: shipped back over
	// the wire; local: copied in process), present only when the
	// query's trace is sampled. The coordinator grafts these under the
	// winning attempt during flight assembly.
	Spans []obs.Span `json:"spans,omitempty"`
	// Attempts lists every replica attempt behind this shard's answer
	// when it is served by a replica set: the primary, plus any retries
	// and hedges. Nil for single-replica shards.
	Attempts []ShardAttempt `json:"attempts,omitempty"`
}

// ShardAttempt is one replica-level attempt within a shard leg: which
// replica was tried, whether it was a retry or a hedge, and how it
// ended. The slowlog and trace use these to show exactly how a slow
// sharded query spent its budget.
type ShardAttempt struct {
	// Replica is the replica's name (URL or index directory).
	Replica string `json:"replica"`
	// ReplicaIdx is the replica's index within its group.
	ReplicaIdx int `json:"replica_idx"`
	// Attempt numbers the attempts of one leg from 0 (the primary).
	Attempt int `json:"attempt"`
	// Hedge marks a speculative attempt issued because the running one
	// exceeded the replica's latency quantile, as opposed to a retry
	// after a failure.
	Hedge bool `json:"hedge,omitempty"`
	// Err is why the attempt failed ("" for the winning attempt;
	// "canceled" for a hedge loser whose request was abandoned).
	Err string `json:"err,omitempty"`
	// SpanID is the attempt's span id in the query's distributed
	// trace. The attempt's trace context crossed the wire with the
	// request, so the remote side's spans are children of exactly this
	// id. "" when the request context carried no trace.
	SpanID string `json:"span_id,omitempty"`
	// Start is the attempt's start offset from the leg start.
	Start time.Duration `json:"start_ns"`
	// Dur is the attempt's wall time.
	Dur time.Duration `json:"dur_ns"`
}

// Searcher answers near-duplicate sequence searches against an opened
// index. It is safe for concurrent use: every query runs in its own
// pooled execution context (scratch buffers, deferral plan, I/O stats
// sink), so nothing is shared between in-flight queries and the
// IOBytes/IOTime/CPUTime split in Stats is exact per query at any
// parallelism.
type Searcher struct {
	ix  IndexReader
	src TextSource

	ctxPool sync.Pool // *queryCtx
}

// New creates a Searcher. src may be nil if verification is never
// requested.
func New(ix IndexReader, src TextSource) *Searcher {
	return &Searcher{ix: ix, src: src}
}

// Search finds all near-duplicate sequences of query per opts
// (Algorithm 3). Results are grouped per text into disjoint merged
// spans, ordered by (TextID, Start). It is SearchContext without
// cancellation.
//
//lint:ignore ctxflow documented compatibility wrapper; cancellable callers use SearchContext
func (s *Searcher) Search(query []uint32, opts Options) ([]Match, *Stats, error) {
	return s.SearchContext(context.Background(), query, opts)
}

// SearchContext is Search honoring a context. Cancellation is checked
// between pipeline stages, before every list read or probe and every
// 1024 candidate texts of the count stage's merge, so a timed-out or
// abandoned query stops issuing I/O promptly and returns ctx.Err().
// Work already done is still charged to the index-wide I/O counters
// (per-query sums over successful queries remain exact).
//
// The query runs through the staged pipeline
// sketch → plan → gather → count → merge → verify (see pipeline.go);
// SearchContext itself only orchestrates the stages and assembles
// Stats.
func (s *Searcher) SearchContext(ctx context.Context, query []uint32, opts Options) ([]Match, *Stats, error) {
	start := obs.NowMono()
	minLen, err := opts.validate(s.ix.Meta(), s.src != nil)
	if err != nil {
		return nil, nil, err
	}
	if len(query) == 0 {
		return nil, nil, ValidationError("search: empty query")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	k := s.ix.K()
	beta := int(math.Ceil(float64(k) * opts.Theta))
	if beta < 1 {
		beta = 1
	}
	st := &Stats{K: k, Beta: beta}
	qc := s.acquireCtx(ctx, opts, minLen, beta, st)
	defer s.releaseCtx(qc)

	sp := qc.trace.Start(StageNames[0]) // sketch
	err = s.stageSketch(qc, query)
	st.StageTimes.Sketch = qc.trace.End(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = qc.trace.Start(StageNames[1]) // plan
	s.stagePlan(qc)
	st.StageTimes.Plan = qc.trace.End(sp)
	if err := qc.checkCancel(); err != nil {
		return nil, nil, err
	}
	sp = qc.trace.Start(StageNames[2]) // gather
	err = s.stageGather(qc)
	st.StageTimes.Gather = qc.trace.End(sp)
	qc.trace.Annotate(sp, "io_bytes", qc.io.BytesRead)
	if err != nil {
		return nil, nil, err
	}
	// The count span covers the per-text collision counting including
	// deferred-list probes; merge time accumulated inside countText is
	// carved out so Count and Merge are disjoint.
	sp = qc.trace.Start(StageNames[3]) // count
	matches, err := s.stageCount(qc)
	st.StageTimes.Count = qc.trace.End(sp) - st.StageTimes.Merge
	if err != nil {
		return nil, nil, err
	}
	sp = qc.trace.Start(StageNames[5]) // verify
	if opts.Verify {
		if err := s.stageVerify(qc, query, matches); err != nil {
			return nil, nil, err
		}
	}
	st.StageTimes.Verify = qc.trace.End(sp)
	st.Matches = len(matches)
	st.IOBytes = qc.io.BytesRead
	st.IOTime = qc.io.ReadTime
	st.Total = obs.SinceMono(start)
	st.CPUTime = st.Total - st.IOTime
	if opts.Trace {
		// Attribute the query's I/O to the segments it touched: one span
		// per segment that served bytes, so multi-segment read skew is
		// visible in the trace.
		for i := range qc.io.PerSegment {
			pio := qc.io.PerSegment[i]
			if pio.BytesRead == 0 && pio.ReadTime == 0 {
				continue
			}
			seg := qc.trace.Start("segment_io")
			qc.trace.Annotate(seg, "segment", int64(i))
			qc.trace.Annotate(seg, "io_bytes", pio.BytesRead)
			qc.trace.End(seg)
		}
		st.Spans = qc.trace.Snapshot(nil)
	}
	return matches, st, nil
}

// EnumerateSequences expands a rectangle into the concrete (start, end)
// pairs of length >= minLen it contains, calling fn for each. It stops
// early if fn returns false. This realizes Algorithm 3's final
// enumeration for callers that need individual sequences rather than
// merged spans.
func EnumerateSequences(r Rect, minLen int, fn func(i, j int32) bool) {
	for i := r.ILo; i <= r.IHi; i++ {
		jLo := r.JLo
		if need := i + int32(minLen) - 1; jLo < need {
			jLo = need
		}
		for j := jLo; j <= r.JHi; j++ {
			if !fn(i, j) {
				return
			}
		}
	}
}
