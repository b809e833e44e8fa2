package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/obs"
	"ndss/internal/search"
)

// Config tunes a Coordinator.
type Config struct {
	// ShardBudget bounds each shard's share of a query: every fan-out
	// leg runs under min(remaining request deadline, ShardBudget). A
	// shard that misses the budget is skipped and flagged in
	// Stats.PerShard rather than failing the query (partial-result
	// semantics). Zero means legs inherit the request deadline only.
	ShardBudget time.Duration
}

// shardSlot is one shard plus its coordinator-side accounting: the
// global text-id base its local ids map to, and its request counters.
type shardSlot struct {
	client ShardClient
	base   uint32

	requests atomic.Int64
	errors   atomic.Int64
	lat      obs.Histogram
}

// Coordinator fans queries out to a fixed set of shards and merges the
// answers into the exact result a single merged index would return. It
// implements the same backend surface internal/server serves, so a
// sharded deployment is just another Backend.
//
// The shard set and the text-id bases are fixed at construction: shard
// i's local text ids map to [base_i, base_i+NumTexts_i), with bases
// assigned cumulatively in shard order (the index.MergeShards offset
// scheme). Growing a shard after construction (live ingest on a remote
// shard) would shift later shards' global ids, so sharded serving is
// read-only: run ingest against individual shards and restart the
// coordinator, or reload it with the new topology.
type Coordinator struct {
	slots  []*shardSlot
	meta   index.Meta
	fam    *hash.Family
	budget time.Duration

	partials atomic.Int64
}

// NewCoordinator validates the shard set (all shards must share K,
// Seed, and T), assigns cumulative text-id bases in shard order, and
// returns a coordinator ready to serve. It takes ownership of the
// clients: Close closes them.
func NewCoordinator(clients []ShardClient, cfg Config) (*Coordinator, error) {
	if len(clients) == 0 {
		return nil, errors.New("shard: coordinator needs at least one shard")
	}
	want := clients[0].Meta()
	fam, err := hash.NewFamily(want.K, want.Seed)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", clients[0].Name(), err)
	}
	agg := want
	slots := make([]*shardSlot, len(clients))
	base := uint32(0)
	for i, cl := range clients {
		m := cl.Meta()
		if m.K != want.K || m.Seed != want.Seed || m.T != want.T {
			return nil, &MixedShardsError{Shard: cl.Name(), Want: want, Got: m}
		}
		slots[i] = &shardSlot{client: cl, base: base}
		base += uint32(m.NumTexts)
		if i > 0 {
			agg.NumTexts += m.NumTexts
			agg.TotalTokens += m.TotalTokens
		}
	}
	return &Coordinator{slots: slots, meta: agg, fam: fam, budget: cfg.ShardBudget}, nil
}

// Shards reports the shard names in fan-out (base) order.
func (c *Coordinator) Shards() []string {
	names := make([]string, len(c.slots))
	for i, sl := range c.slots {
		names[i] = sl.client.Name()
	}
	return names
}

// Meta returns the aggregate index metadata: the shared hash-family
// options plus summed corpus sizes, exactly what a merged single index
// over the same shards would report.
func (c *Coordinator) Meta() index.Meta { return c.meta }

// Family returns the hash family shared by every shard.
func (c *Coordinator) Family() *hash.Family { return c.fam }

// BuildID derives a combined build id from the shards' current build
// ids (order-sensitive), so reloading any shard changes the
// coordinator's id just like reloading a single backend would.
func (c *Coordinator) BuildID() string {
	if len(c.slots) == 1 {
		return c.slots[0].client.BuildID()
	}
	h := fnv.New64a()
	for _, sl := range c.slots {
		h.Write([]byte(sl.client.BuildID()))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("sharded-%d-%016x", len(c.slots), h.Sum64())
}

// IOStats sums the shards' cumulative I/O counters, attributing each
// shard's share in PerSegment-style per-shard entries.
func (c *Coordinator) IOStats() index.IOStats {
	var out index.IOStats
	for _, sl := range c.slots {
		st := sl.client.IOStats()
		out.BytesRead += st.BytesRead
		out.ReadTime += st.ReadTime
	}
	return out
}

// CheckHealth checks every shard concurrently and returns the joined
// errors of the unhealthy ones (nil when all are serving).
func (c *Coordinator) CheckHealth(ctx context.Context) error {
	errs := make([]error, len(c.slots))
	var wg sync.WaitGroup
	for i, sl := range c.slots {
		wg.Add(1)
		go func(i int, sl *shardSlot) {
			defer wg.Done()
			probeCtx := childTraceContext(ctx)
			if err := sl.client.CheckHealth(probeCtx); err != nil {
				errs[i] = fmt.Errorf("shard %s: %w", sl.client.Name(), err)
			}
		}(i, sl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// StartProbers launches the background health loop of every shard that
// has one (replica sets): recovered replicas rejoin, diverging builds
// are quarantined, all without query traffic. The loops stop when ctx
// is canceled or the coordinator is closed.
func (c *Coordinator) StartProbers(ctx context.Context, interval time.Duration) {
	for _, sl := range c.slots {
		if p, ok := sl.client.(interface {
			StartProber(ctx context.Context, interval time.Duration)
		}); ok {
			p.StartProber(ctx, interval)
		}
	}
}

// Close closes every shard and returns their joined errors.
func (c *Coordinator) Close() error {
	errs := make([]error, len(c.slots))
	for i, sl := range c.slots {
		errs[i] = sl.client.Close()
	}
	return errors.Join(errs...)
}

// legResult is one shard's answer as observed by the coordinator.
type legResult struct {
	matches []search.Match
	stats   *search.Stats
	err     error
	start   time.Duration // leg start, offset from the fan-out base
	dur     time.Duration // leg wall time (queueing + execution + network)
	spanID  string        // the leg's span id when the query is traced
}

// childTraceContext derives a fresh child span for one unit of
// downstream work (a leg or a probe) when ctx carries a trace, and
// returns the context to run it under plus the child's span id.
func childTraceContextID(ctx context.Context) (context.Context, string) {
	tc, ok := obs.TraceFromContext(ctx)
	if !ok {
		return ctx, ""
	}
	child := tc.Child()
	return obs.ContextWithTrace(ctx, child), child.SpanIDString()
}

func childTraceContext(ctx context.Context) context.Context {
	ctx, _ = childTraceContextID(ctx)
	return ctx
}

// fanOut runs one query leg per shard concurrently, each under
// min(parent deadline, ShardBudget), and joins. Per-shard request,
// error, and latency counters are updated here, so every fan-out leg is
// observed exactly once. The returned base is the fan-out start, for
// charging the merge tail to Stats.Total.
func (c *Coordinator) fanOut(ctx context.Context, run func(ctx context.Context, cl ShardClient) ([]search.Match, *search.Stats, error)) ([]legResult, obs.Mono) {
	base := obs.NowMono()
	results := make([]legResult, len(c.slots))
	var wg sync.WaitGroup
	for i, sl := range c.slots {
		wg.Add(1)
		go func(i int, sl *shardSlot) {
			defer wg.Done()
			legCtx, spanID := childTraceContextID(ctx)
			if c.budget > 0 {
				var cancel context.CancelFunc
				legCtx, cancel = context.WithTimeout(legCtx, c.budget)
				defer cancel()
			}
			t0 := obs.NowMono()
			var (
				m   []search.Match
				st  *search.Stats
				err error
			)
			// The shard label joins CPU profiles to the trace: a profile
			// taken during the query attributes samples to the leg that
			// burned them.
			pprof.Do(legCtx, pprof.Labels("shard", sl.client.Name()), func(legCtx context.Context) {
				m, st, err = run(legCtx, sl.client)
			})
			dur := obs.SinceMono(t0)
			sl.requests.Add(1)
			sl.lat.Observe(dur)
			if err != nil {
				sl.errors.Add(1)
			}
			results[i] = legResult{matches: m, stats: st, err: err, start: t0.Sub(base), dur: dur, spanID: spanID}
		}(i, sl)
	}
	wg.Wait()
	return results, base
}

// SearchContext fans the query out to every shard and returns the
// merged matches in global (TextID, Start) order — byte-identical to
// the same query against one merged index. Shards that miss their
// budget are skipped and flagged in Stats (ShardsAnswered < ShardsTotal
// and the PerShard entry); the query only fails when the caller's own
// context expires or no shard answers at all.
func (c *Coordinator) SearchContext(ctx context.Context, query []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	if opts.KeepRects {
		return nil, nil, search.ValidationError("shard: KeepRects is not supported through a coordinator")
	}
	results, base := c.fanOut(ctx, func(ctx context.Context, cl ShardClient) ([]search.Match, *search.Stats, error) {
		return cl.SearchContext(ctx, query, opts)
	})
	return c.merge(ctx, base, results, opts.Trace, 0)
}

// SearchTopKContext fans out and re-ranks the union of the shards'
// top-k answers. Each shard's local top-N is a superset of its members
// of the global top-N, so re-sorting the union under the same
// (collisions desc, text id asc, start asc) order and truncating to N
// reproduces the single-index answer exactly, ties included.
func (c *Coordinator) SearchTopKContext(ctx context.Context, query []uint32, opts search.TopKOptions) ([]search.Match, *search.Stats, error) {
	if opts.Search.KeepRects {
		return nil, nil, search.ValidationError("shard: KeepRects is not supported through a coordinator")
	}
	if opts.N <= 0 {
		return nil, nil, search.ValidationError(fmt.Sprintf("search: TopK N must be positive, got %d", opts.N))
	}
	results, base := c.fanOut(ctx, func(ctx context.Context, cl ShardClient) ([]search.Match, *search.Stats, error) {
		return cl.SearchTopKContext(ctx, query, opts)
	})
	return c.merge(ctx, base, results, opts.Search.Trace, opts.N)
}

// Explain returns the first shard's query plan: planning depends only
// on list-length statistics, so any shard's plan is representative.
func (c *Coordinator) Explain(ctx context.Context, query []uint32, opts search.Options) (*search.Plan, error) {
	return c.slots[0].client.Explain(ctx, query, opts)
}

// merge assembles the fan-out legs into one globally-ordered result.
// topN > 0 selects top-k ranking (sort by collisions, truncate);
// topN == 0 keeps the concatenation order, which is already globally
// sorted because shard text-id ranges are disjoint and ascending.
func (c *Coordinator) merge(ctx context.Context, base obs.Mono, results []legResult, trace bool, topN int) ([]search.Match, *search.Stats, error) {
	answered := 0
	var firstErr error
	for i := range results {
		if results[i].err == nil {
			answered++
		} else if firstErr == nil {
			firstErr = fmt.Errorf("shard %s: %w", c.slots[i].client.Name(), results[i].err)
		}
	}
	// The caller's own deadline expiring is an error, exactly as on an
	// unsharded backend — partial-result semantics only cover shards
	// missing their per-shard budget while the request is still live.
	if answered < len(results) && ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	if answered == 0 {
		return nil, nil, firstErr
	}

	total := 0
	for i := range results {
		if results[i].err == nil {
			total += len(results[i].matches)
		}
	}
	out := make([]search.Match, 0, total)
	st := &search.Stats{
		ShardsTotal:    len(results),
		ShardsAnswered: answered,
		PerShard:       make([]search.ShardStats, len(results)),
	}
	// The full span lists ride along only when the query's trace is
	// sampled (or the query runs outside any trace, i.e. direct library
	// use): stage aggregates always flow, span shipping is opt-in.
	keepSpans := true
	if tc, ok := obs.TraceFromContext(ctx); ok {
		keepSpans = tc.Sampled
	}
	first := true
	for i := range results {
		r := &results[i]
		sl := c.slots[i]
		ps := search.ShardStats{Shard: sl.client.Name(), Total: r.dur, SpanID: r.spanID, Start: r.start}
		if r.stats != nil {
			// Replica-set legs hand their attempt log up through the
			// stats; it belongs on the leg's PerShard entry (and is
			// recorded even when every attempt failed).
			ps.Attempts = r.stats.Attempts
			r.stats.Attempts = nil
			// Same hand-off for the leg's own span list: the winning
			// attempt's spans belong under this leg of the query tree.
			if keepSpans {
				ps.Spans = r.stats.Spans
				r.stats.Spans = nil
			}
		}
		if r.err != nil {
			ps.Err = shardErrString(r.err)
			st.PerShard[i] = ps
			continue
		}
		ps.Answered = true
		ps.Matches = len(r.matches)
		for j := range r.matches {
			r.matches[j].TextID += sl.base
		}
		out = append(out, r.matches...)
		if r.stats != nil {
			if first {
				st.K, st.Beta = r.stats.K, r.stats.Beta
				first = false
			}
			st.ShortLists += r.stats.ShortLists
			st.LongLists += r.stats.LongLists
			st.Candidates += r.stats.Candidates
			st.Probed += r.stats.Probed
			st.Rects += r.stats.Rects
			st.IOBytes += r.stats.IOBytes
			st.IOTime += r.stats.IOTime
			st.CPUTime += r.stats.CPUTime
			st.StageTimes = st.StageTimes.Add(r.stats.StageTimes)
			ps.IOBytes = r.stats.IOBytes
			ps.IOTime = r.stats.IOTime
			ps.StageTimes = r.stats.StageTimes
		}
		st.PerShard[i] = ps
	}

	mergeStart := obs.NowMono()
	if topN > 0 {
		out = search.RankTopK(out, topN)
	}
	st.Matches = len(out)
	mergeDur := obs.SinceMono(mergeStart)
	st.StageTimes.Merge += mergeDur
	st.CPUTime += mergeDur

	if st.Partial() {
		c.partials.Add(1)
	}
	if trace {
		var tr obs.Trace
		tr.Reset()
		for i := range results {
			r := &results[i]
			id := tr.Record("shard", r.start, r.dur)
			tr.Annotate(id, "shard", int64(i))
			if r.stats != nil {
				tr.Annotate(id, "io_bytes", r.stats.IOBytes)
			}
			// Extra replica attempts (retries and hedges) get their own
			// spans, offset into the leg, so a traced slow query shows
			// exactly where the leg's budget went.
			for _, a := range st.PerShard[i].Attempts {
				if a.Attempt == 0 {
					continue
				}
				name := "shard_retry"
				if a.Hedge {
					name = "shard_hedge"
				}
				id := tr.Record(name, r.start+a.Start, a.Dur)
				tr.Annotate(id, "attempt", int64(a.Attempt))
				tr.Annotate(id, "replica", int64(a.ReplicaIdx))
			}
		}
		tr.Record("shard_merge", mergeStart.Sub(base), mergeDur)
		st.Spans = tr.Snapshot(nil)
	}
	st.Total = obs.SinceMono(base)
	return out, st, nil
}

// PartialResults reports how many queries returned with at least one
// shard unanswered since the coordinator started.
func (c *Coordinator) PartialResults() int64 { return c.partials.Load() }
