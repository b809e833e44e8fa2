package search

import (
	"context"
	"fmt"
	"math"
	"time"

	"ndss/internal/hash"
	"ndss/internal/index"
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
//
// A query resolves its sketch against every segment directory once
// (ResolveRows) and reads its lists by the resolved rows from then on:
// ReadRowsInto over every text id for a short list, over one text's id
// for each probe of a deferred one. The rows' lengths and probeability
// are what the planner decides deferral with.
type IndexReader interface {
	Meta() index.Meta
	Family() *hash.Family
	ResolveRows(rows *index.Rows, sketch []uint64)
	ReadRowsInto(dst []index.Posting, rows *index.Rows, fn int, lo, hi uint32, sink *index.IOStats) ([]index.Posting, error)
}

// Options configures one search.
type Options struct {
	// Theta is the Jaccard similarity threshold in (0, 1]. A sequence
	// qualifies when it shares at least β of the K min-hash values with
	// the query, β the least count with β/K ≥ Theta (Definition 2's
	// ⌈K·Theta⌉ in exact arithmetic).
	Theta float64
	// Limit, when positive, keeps only the Limit best matches, ranked
	// best-first by RankTopK (most collisions, ties by text id then
	// start): a top-k query is a search at the floor θ with a Limit.
	// Zero reports every match, ordered by (TextID, Start).
	Limit int
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
}

// ValidationError is a query the caller got wrong (invalid Options, an
// empty query): it fails alike on every index and replica, so a server
// answers it 400 and any other failure 500.
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
	if o.Limit < 0 {
		return 0, ValidationError(fmt.Sprintf("search: Limit must not be negative, got %d", o.Limit))
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
	TextID uint32 `json:"text_id"`
	// Start and End delimit the merged span, 0-based inclusive.
	Start int32 `json:"start"`
	End   int32 `json:"end"`
	// Collisions is the best (maximum) min-hash collision count among
	// the merged sequences.
	Collisions int `json:"collisions"`
	// EstJaccard is Collisions / K, the estimated Jaccard similarity.
	EstJaccard float64 `json:"est_jaccard"`
	// Jaccard is the exact distinct Jaccard similarity between the query
	// and the span, filled only when Options.Verify is set.
	Jaccard float64 `json:"jaccard,omitempty"`
	// Rects holds the raw qualifying rectangles when Options.KeepRects
	// is set. They are never served.
	Rects []Rect `json:"-"`
}

// NumStages is the number of pipeline stages in StageNames/StageTimes.
const NumStages = 6

// StageNames lists the pipeline stages in execution order. Indexes
// align with StageTimes.Durations, so consumers (histograms, traces,
// CLIs) can iterate the decomposition without knowing the stage set.
var StageNames = [NumStages]string{"sketch", "plan", "gather", "count", "merge", "verify"}

// StageTimes is the per-stage wall-time decomposition of one query
// through the pipeline, measured by one running clock: each stage
// boundary charges the time since the previous one to the stage that
// just finished. Count and merge interleave per candidate text and are
// charged at each hand-off, so the six stages are disjoint and sum to
// Stats.Total less the query's setup (validation, context acquisition)
// and its final Stats assembly. The _ns JSON names
// are the stable wire format served by /search.
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
// run concurrently. The JSON names are the stats object /search
// serves.
type Stats struct {
	K          int           `json:"k"`
	Beta       int           `json:"beta"`        // required collisions ceil(K*Theta)
	ShortLists int           `json:"short_lists"` // lists loaded fully
	LongLists  int           `json:"long_lists"`  // lists deferred to zone-map probes
	Candidates int           `json:"candidates"`  // texts surviving the short-list filter
	Probed     int           `json:"probed"`      // texts probed in long lists
	Rects      int           `json:"-"`           // qualifying rectangles; library-only, never served
	Matches    int           `json:"matches"`     // merged spans reported
	IOBytes    int64         `json:"io_bytes"`    // bytes read from the index by this query
	IOTime     time.Duration `json:"io_time_ns"`  // time this query spent in index reads
	CPUTime    time.Duration `json:"cpu_time_ns"` // Total minus IOTime
	Total      time.Duration `json:"total_ns"`

	// StageTimes decomposes Total across the pipeline stages. Always
	// measured: one clock read per stage boundary, two per text that
	// reaches merge (the count/merge hand-offs).
	StageTimes StageTimes `json:"stages"`

	// ShardsTotal and ShardsAnswered describe scatter–gather fan-out
	// when the query ran through a shard coordinator: ShardsTotal shards
	// were asked, ShardsAnswered answered within their budget. Both are
	// zero for unsharded queries; ShardsAnswered < ShardsTotal marks a
	// partial result.
	ShardsTotal    int `json:"shards_total,omitempty"`
	ShardsAnswered int `json:"shards_answered,omitempty"`
	// PerShard attributes the query's work to each shard: one entry per
	// shard in shard order, including the shards that missed their
	// budget. Nil for unsharded queries.
	PerShard []ShardStats `json:"per_shard,omitempty"`

	// Attempts is a hand-off field between a replica-set shard client
	// and its coordinator: the client records every replica attempt the
	// leg made (primary, retries, hedges) here, and the coordinator
	// moves them into the leg's PerShard entry during merge. Nil
	// everywhere else, and never served.
	Attempts []ShardAttempt `json:"-"`
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
	// attempt and stage timings can be placed on the query's time axis.
	Start time.Duration `json:"start_ns,omitempty"`
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
	// request, so the remote side's record carries exactly this id as
	// its parent. "" when the request context carried no trace.
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
// A failed or cancelled query returns no Stats, so the reads it made
// are counted nowhere.
//
// The query runs through the staged pipeline
// sketch → plan → gather → count → merge → verify (see pipeline.go);
// SearchContext itself only orchestrates the stages and assembles
// Stats.
func (s *Searcher) SearchContext(ctx context.Context, query []uint32, opts Options) ([]Match, *Stats, error) {
	start := time.Now()
	meta := s.ix.Meta()
	minLen, err := opts.validate(meta, s.src != nil)
	if err != nil {
		return nil, nil, err
	}
	if len(query) == 0 {
		return nil, nil, ValidationError("search: empty query")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	k := meta.K
	beta := requiredCollisions(k, opts.Theta)
	st := &Stats{K: k, Beta: beta}
	qc := acquireCtx(ctx, opts, minLen, beta, st)
	defer releaseCtx(qc)

	err = s.stageSketch(qc, query)
	st.StageTimes.Sketch = qc.lap()
	if err != nil {
		return nil, nil, err
	}
	s.stagePlan(qc)
	st.StageTimes.Plan = qc.lap()
	if err := qc.checkCancel(); err != nil {
		return nil, nil, err
	}
	err = s.stageGather(qc)
	st.StageTimes.Gather = qc.lap()
	if err != nil {
		return nil, nil, err
	}
	// Count and merge interleave per candidate text; countText laps the
	// clock at each hand-off, so Count (probes included) and Merge are
	// disjoint.
	matches, err := s.stageCount(qc)
	st.StageTimes.Count += qc.lap()
	if err != nil {
		return nil, nil, err
	}
	if opts.Limit > 0 {
		// Ranking is merge work: the merge stage absorbs it, and it runs
		// before verify so only the kept matches are verified.
		matches = RankTopK(matches, opts.Limit)
		st.StageTimes.Merge += qc.lap()
	}
	if opts.Verify {
		if err := s.stageVerify(qc, query, matches); err != nil {
			return nil, nil, err
		}
	}
	st.StageTimes.Verify = qc.lap()
	st.Matches = len(matches)
	st.IOBytes = qc.io.BytesRead
	st.IOTime = qc.io.ReadTime
	st.Total = time.Since(start)
	st.CPUTime = st.Total - st.IOTime
	return matches, st, nil
}

// requiredCollisions is Definition 2's β = ⌈kθ⌉, at least 1: the min-hash
// collisions a sequence needs to qualify at threshold theta. It is the
// least b with b/k ≥ theta — the comparison a reported EstJaccard
// qualifies by — because math.Ceil(k*theta) rounds one too high where
// the product lands just above an integer (k=100, θ=0.55 gives 56). It
// is never more than one too high, so the search starts one below.
func requiredCollisions(k int, theta float64) int {
	beta := max(int(math.Ceil(float64(k)*theta))-1, 1)
	for float64(beta)/float64(k) < theta {
		beta++
	}
	return beta
}
