package shard_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ndss/internal/index"
	"ndss/internal/search"
	"ndss/internal/shard"
)

// Fault and deadline tests over fully controllable stub shards: a shard
// that errors or misses its budget must yield a flagged partial result,
// never a failed query — unless the caller's own deadline expires or no
// shard answers at all.

// stubShard is a controllable ShardClient.
type stubShard struct {
	name    string
	build   string // BuildID override; replicas of one group must share it
	meta    index.Meta
	matches []search.Match
	stats   search.Stats
	err     error
	block   bool // park until the leg context is done, then return its error
	calls   atomic.Int64
	probes  atomic.Int64 // CheckHealth calls
	down    atomic.Bool  // CheckHealth fails while set

	// hook, when set, fully overrides SearchContext (call is 1-based).
	hook func(ctx context.Context, call int64) ([]search.Match, *search.Stats, error)
}

func newStubShard(name string, numTexts int, matches ...search.Match) *stubShard {
	return &stubShard{
		name:    name,
		meta:    index.Meta{K: 8, Seed: 1, T: 5, NumTexts: numTexts, TotalTokens: int64(numTexts) * 50},
		matches: matches,
		stats:   search.Stats{K: 8, Beta: 4, Candidates: len(matches), IOBytes: 100},
	}
}

func (s *stubShard) Name() string     { return s.name }
func (s *stubShard) Meta() index.Meta { return s.meta }
func (s *stubShard) BuildID() string {
	if s.build != "" {
		return s.build
	}
	return "stub-" + s.name
}
func (s *stubShard) Close() error { return nil }
func (s *stubShard) CheckHealth(ctx context.Context) error {
	s.probes.Add(1)
	if s.down.Load() {
		return errors.New("stub: down")
	}
	return ctx.Err()
}

func (s *stubShard) SearchContext(ctx context.Context, q []uint32, o search.Options) ([]search.Match, *search.Stats, error) {
	call := s.calls.Add(1)
	if s.hook != nil {
		return s.hook(ctx, call)
	}
	if s.block {
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	if s.err != nil {
		return nil, nil, s.err
	}
	// The coordinator remaps text ids in place; hand out a fresh copy.
	ms := append([]search.Match(nil), s.matches...)
	st := s.stats
	return ms, &st, nil
}

func stubCoordinator(t *testing.T, cfg shard.Config, shards ...*stubShard) *shard.Coordinator {
	t.Helper()
	clients := make([]shard.ShardClient, len(shards))
	for i, s := range shards {
		clients[i] = s
	}
	c, err := shard.NewCoordinator(clients, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPartialOnShardError(t *testing.T) {
	s0 := newStubShard("s0", 10, search.Match{TextID: 3, Start: 1, End: 9, Collisions: 6})
	s1 := newStubShard("s1", 10)
	s1.err = errors.New("disk on fire")
	s2 := newStubShard("s2", 10, search.Match{TextID: 2, Start: 0, End: 8, Collisions: 5})

	c := stubCoordinator(t, shard.Config{}, s0, s1, s2)
	got, st, err := c.SearchContext(context.Background(), []uint32{1, 2, 3}, search.Options{Theta: 0.5})
	if err != nil {
		t.Fatalf("one failing shard must not fail the query: %v", err)
	}
	// Bases: s0=0, s1=10, s2=20; s2's local text 2 is global 22.
	if len(got) != 2 || got[0].TextID != 3 || got[1].TextID != 22 {
		t.Fatalf("merged matches = %+v, want texts 3 and 22", got)
	}
	if st.ShardsTotal != 3 || st.ShardsAnswered != 2 || !st.Partial() {
		t.Fatalf("stats %d/%d partial=%v, want 2/3 partial", st.ShardsAnswered, st.ShardsTotal, st.Partial())
	}
	ps := st.PerShard[1]
	if ps.Answered || !strings.Contains(ps.Err, "disk on fire") {
		t.Fatalf("failing shard attribution = %+v", ps)
	}
	m := c.ShardMetrics()
	if m.PartialResults != 1 {
		t.Fatalf("metrics partials = %d, want 1", m.PartialResults)
	}
	for i, sh := range m.Shards {
		wantErrs := int64(0)
		if i == 1 {
			wantErrs = 1
		}
		if sh.Requests != 1 || sh.Errors != wantErrs || sh.Latency.Count != 1 {
			t.Errorf("shard %s metrics: requests=%d errors=%d latency_count=%d", sh.Shard, sh.Requests, sh.Errors, sh.Latency.Count)
		}
	}
}

func TestPartialOnBudgetMiss(t *testing.T) {
	fast := newStubShard("fast", 10, search.Match{TextID: 0, Start: 0, End: 7, Collisions: 8})
	slow := newStubShard("slow", 10)
	slow.block = true

	c := stubCoordinator(t, shard.Config{ShardBudget: 20 * time.Millisecond}, fast, slow)
	got, st, err := c.SearchContext(context.Background(), []uint32{1, 2, 3}, search.Options{Theta: 0.5})
	if err != nil {
		t.Fatalf("budget miss must degrade to a partial, got error: %v", err)
	}
	if len(got) != 1 || got[0].TextID != 0 {
		t.Fatalf("matches = %+v, want the fast shard's text 0", got)
	}
	if !st.Partial() || st.ShardsAnswered != 1 {
		t.Fatalf("stats %d/%d, want flagged partial 1/2", st.ShardsAnswered, st.ShardsTotal)
	}
	if st.PerShard[1].Err != "deadline exceeded" {
		t.Fatalf("slow shard err = %q, want %q", st.PerShard[1].Err, "deadline exceeded")
	}
	if n := c.ShardMetrics().PartialResults; n != 1 {
		t.Fatalf("metrics partials = %d, want 1", n)
	}
}

func TestParentDeadlineIsAnError(t *testing.T) {
	fast := newStubShard("fast", 10, search.Match{TextID: 0, Collisions: 8})
	slow := newStubShard("slow", 10)
	slow.block = true

	// No per-shard budget: the only deadline is the caller's own, and its
	// expiry fails the query exactly as on an unsharded backend.
	c := stubCoordinator(t, shard.Config{}, fast, slow)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := c.SearchContext(ctx, []uint32{1, 2, 3}, search.Options{Theta: 0.5})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller deadline expiry: err = %v, want DeadlineExceeded", err)
	}
}

func TestAllShardsFailingIsAnError(t *testing.T) {
	s0 := newStubShard("s0", 10)
	s0.err = errors.New("boom0")
	s1 := newStubShard("s1", 10)
	s1.err = errors.New("boom1")

	c := stubCoordinator(t, shard.Config{}, s0, s1)
	_, _, err := c.SearchContext(context.Background(), []uint32{1}, search.Options{Theta: 0.5})
	if err == nil || !strings.Contains(err.Error(), "shard s0") {
		t.Fatalf("all shards failing: err = %v, want the first shard's error", err)
	}
}

// TestTopKTieOrderAcrossShards pins the cross-shard tie order: equal
// collision counts rank by global text id then start, so the merged
// top-k is byte-identical to a single index's answer no matter which
// shard each tied span lives on. The stubs ignore the Limit and answer
// unranked, as a shard ignoring n would: the coordinator's re-rank
// alone must produce the order.
func TestTopKTieOrderAcrossShards(t *testing.T) {
	s0 := newStubShard("s0", 10,
		search.Match{TextID: 5, Start: 3, End: 11, Collisions: 7},
		search.Match{TextID: 5, Start: 9, End: 17, Collisions: 7},
	)
	s1 := newStubShard("s1", 10,
		search.Match{TextID: 0, Start: 0, End: 8, Collisions: 9},  // global 10
		search.Match{TextID: 1, Start: 4, End: 12, Collisions: 7}, // global 11
	)

	c := stubCoordinator(t, shard.Config{}, s0, s1)
	got, _, err := c.SearchContext(context.Background(), []uint32{1}, search.Options{Theta: 0.5, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []search.Match{
		{TextID: 10, Start: 0, End: 8, Collisions: 9},
		{TextID: 5, Start: 3, End: 11, Collisions: 7},
		{TextID: 5, Start: 9, End: 17, Collisions: 7},
	}
	if !sameMatches(got, want) {
		t.Fatalf("tie-broken top-3:\n got %+v\nwant %+v", got, want)
	}
	// Widening the Limit picks up the remaining tied span, in text-id order.
	got, _, err = c.SearchContext(context.Background(), []uint32{1}, search.Options{Theta: 0.5, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].TextID != 11 {
		t.Fatalf("top-10 = %+v, want the global-text-11 span last", got)
	}
}

// TestTraceAndStatsAggregation checks the merged stats carry the summed
// counters of the answered shards, each leg once in PerShard on the
// query's time axis, and stage times that are the legs' sums plus the
// coordinator's own merge, the time a trace draws its shard_merge from.
func TestTraceAndStatsAggregation(t *testing.T) {
	s0 := newStubShard("s0", 10, search.Match{TextID: 1, Collisions: 5})
	s1 := newStubShard("s1", 10, search.Match{TextID: 2, Collisions: 4})
	s0.stats.StageTimes = search.StageTimes{Sketch: 1, Plan: 2, Gather: 3, Count: 4, Merge: 5, Verify: 6}
	s1.stats.StageTimes = search.StageTimes{Sketch: 10, Plan: 20, Gather: 30, Count: 40, Merge: 50, Verify: 60}

	c := stubCoordinator(t, shard.Config{}, s0, s1)
	_, st, err := c.SearchContext(context.Background(), []uint32{1}, search.Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.IOBytes != 200 || st.Candidates != 2 {
		t.Fatalf("aggregated stats: io_bytes=%d candidates=%d, want 200/2", st.IOBytes, st.Candidates)
	}
	if st.K != 8 || st.Beta != 4 {
		t.Fatalf("stats K/Beta = %d/%d, want the shards' 8/4", st.K, st.Beta)
	}
	legs := s0.stats.StageTimes.Add(s1.stats.StageTimes)
	own := st.StageTimes.Merge - legs.Merge
	legs.Merge = st.StageTimes.Merge
	if st.StageTimes != legs || own <= 0 || own > st.Total {
		t.Fatalf("merged stages %+v with own merge %v, want the legs' sums plus a merge within the total %v",
			st.StageTimes, own, st.Total)
	}
	if st.Total <= 0 {
		t.Fatal("merged stats carry no total time")
	}
	if len(st.PerShard) != 2 {
		t.Fatalf("PerShard has %d legs, want 2", len(st.PerShard))
	}
	for i, ps := range st.PerShard {
		if ps.Start < 0 || ps.Total <= 0 || ps.Start+ps.Total > st.Total {
			t.Errorf("leg %d runs %v from %v, outside the query's %v", i, ps.Total, ps.Start, st.Total)
		}
		if ps.IOBytes != 100 {
			t.Errorf("leg %d io_bytes = %d, want 100", i, ps.IOBytes)
		}
	}
}
