package shard_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ndss/internal/search"
	"ndss/internal/shard"
)

// Behavioral tests for the ReplicaSet resilience layer over stub
// replicas. Routing is deterministic under test configs: with idle
// replicas power-of-two-choices tie-breaks to the lower index, so the
// primary always lands on replica 0.

// replicaStub builds a stub replica named name sharing the group's
// build id and corpus slice.
func replicaStub(name string, matches ...search.Match) *stubShard {
	s := newStubShard(name, 10, matches...)
	s.build = "build-1"
	return s
}

// testReplicaCfg is fast and deterministic: no hedging unless a test
// opts in, no background probe within a test's lifetime (tests probe by
// calling CheckHealth), fixed seed.
func testReplicaCfg() shard.ReplicaConfig {
	return shard.ReplicaConfig{
		HedgeDelayMin:   -1, // off by default; hedge tests override
		BreakerFailures: 100,
		ProbeInterval:   time.Hour, // the prober test overrides
		Seed:            1,
	}
}

func newReplicaSet(t *testing.T, cfg shard.ReplicaConfig, reps ...*stubShard) *shard.ReplicaSet {
	t.Helper()
	clients := make([]shard.ShardClient, len(reps))
	for i, s := range reps {
		clients[i] = s
	}
	rs, err := shard.NewReplicaSet("group", clients, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

func TestReplicaRetryOnTransientFailure(t *testing.T) {
	bad := replicaStub("r0")
	bad.err = &shard.RemoteError{Shard: "r0", Status: 503, Msg: "draining"}
	good := replicaStub("r1", search.Match{TextID: 4, Start: 0, End: 8, Collisions: 6})

	rs := newReplicaSet(t, testReplicaCfg(), bad, good)
	got, st, err := rs.SearchContext(context.Background(), []uint32{1, 2}, search.Options{Theta: 0.5})
	if err != nil {
		t.Fatalf("transient failure with a healthy replica left: %v", err)
	}
	if len(got) != 1 || got[0].TextID != 4 {
		t.Fatalf("matches = %+v, want replica r1's text 4", got)
	}
	if len(st.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want primary + retry", st.Attempts)
	}
	a0, a1 := st.Attempts[0], st.Attempts[1]
	if a0.Replica != "r0" || a0.Err == "" || a0.Hedge {
		t.Fatalf("primary attempt = %+v, want failed non-hedge on r0", a0)
	}
	if a1.Replica != "r1" || a1.Err != "" || a1.Attempt != 1 {
		t.Fatalf("retry attempt = %+v, want success on the other replica", a1)
	}

	m := rs.ReplicaMetrics()
	r0, r1 := m.Replicas[0], m.Replicas[1]
	if r0.Requests != 1 || r0.Errors != 1 || r0.Retries != 0 {
		t.Errorf("r0 metrics = %+v, want 1 request, 1 error", r0)
	}
	if r1.Requests != 1 || r1.Errors != 0 || r1.Retries != 1 {
		t.Errorf("r1 metrics = %+v, want 1 request counted as a retry", r1)
	}
}

func TestReplicaNonRetryableErrorFailsFast(t *testing.T) {
	bad := replicaStub("r0")
	bad.err = errors.New("theta out of range") // request-level: identical everywhere
	good := replicaStub("r1", search.Match{TextID: 1, Collisions: 5})

	rs := newReplicaSet(t, testReplicaCfg(), bad, good)
	_, _, err := rs.SearchContext(context.Background(), []uint32{1}, search.Options{Theta: 0.5})
	if err == nil || good.calls.Load() != 0 {
		t.Fatalf("non-retryable error must fail without burning attempts: err=%v, r1 calls=%d",
			err, good.calls.Load())
	}
}

func TestReplicaRetriesExhausted(t *testing.T) {
	r0 := replicaStub("r0")
	r0.err = &shard.RemoteError{Shard: "r0", Status: 503, Msg: "down"}
	r1 := replicaStub("r1")
	r1.err = &shard.RemoteError{Shard: "r1", Status: 503, Msg: "down"}

	rs := newReplicaSet(t, testReplicaCfg(), r0, r1)
	_, st, err := rs.SearchContext(context.Background(), []uint32{1}, search.Options{Theta: 0.5})
	var re *shard.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("all replicas failing: err = %v, want the last RemoteError", err)
	}
	// Each replica is tried once: the primary plus one retry, every
	// attempt recorded even though the leg failed.
	if st == nil || len(st.Attempts) != 2 {
		t.Fatalf("failed leg attempts = %+v, want 2 recorded", st)
	}
	for i, a := range st.Attempts {
		if a.Err == "" || a.Attempt != i {
			t.Errorf("attempt %d = %+v, want ordered failures", i, a)
		}
	}
}

func TestReplicaHedgeWinsOnSlowPrimary(t *testing.T) {
	slow := replicaStub("r0")
	slow.hook = func(ctx context.Context, call int64) ([]search.Match, *search.Stats, error) {
		<-ctx.Done() // park until the hedge wins and we're canceled
		return nil, nil, ctx.Err()
	}
	fast := replicaStub("r1", search.Match{TextID: 2, Start: 0, End: 8, Collisions: 7})

	cfg := testReplicaCfg()
	cfg.HedgeDelayMin = 2 * time.Millisecond
	rs := newReplicaSet(t, cfg, slow, fast)
	got, st, err := rs.SearchContext(context.Background(), []uint32{1}, search.Options{Theta: 0.5})
	if err != nil {
		t.Fatalf("hedged query: %v", err)
	}
	if len(got) != 1 || got[0].TextID != 2 {
		t.Fatalf("matches = %+v, want the fast replica's answer", got)
	}
	if len(st.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want primary + hedge", st.Attempts)
	}
	var sawHedgeWin, sawCanceledPrimary bool
	for _, a := range st.Attempts {
		if a.Hedge && a.Err == "" && a.Replica == "r1" {
			sawHedgeWin = true
		}
		if !a.Hedge && a.Replica == "r0" && a.Err == "canceled" {
			sawCanceledPrimary = true
		}
	}
	if !sawHedgeWin || !sawCanceledPrimary {
		t.Fatalf("attempts = %+v, want a winning hedge on r1 and a canceled primary on r0", st.Attempts)
	}
	m := rs.ReplicaMetrics()
	if m.HedgeWins != 1 || m.Replicas[1].Hedges != 1 {
		t.Errorf("metrics hedge_wins=%d r1.hedges=%d, want 1/1", m.HedgeWins, m.Replicas[1].Hedges)
	}
	// The canceled primary must not count as a replica error.
	if m.Replicas[0].Errors != 0 {
		t.Errorf("canceled primary counted as error: %+v", m.Replicas[0])
	}
}

func TestReplicaBreakerRoutesAroundAndProbeRecovers(t *testing.T) {
	bad := replicaStub("r0")
	bad.err = &shard.RemoteError{Shard: "r0", Status: 503, Msg: "down"}
	good := replicaStub("r1", search.Match{TextID: 1, Collisions: 5})

	cfg := testReplicaCfg()
	cfg.BreakerFailures = 2
	rs := newReplicaSet(t, cfg, bad, good)
	ctx := context.Background()
	// Two failing queries trip r0's breaker (each query fails once on r0
	// and succeeds on r1 via retry — zero client-visible errors).
	for i := 0; i < 2; i++ {
		if _, _, err := rs.SearchContext(ctx, []uint32{1}, search.Options{Theta: 0.5}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	m := rs.ReplicaMetrics()
	if m.Replicas[0].Breaker != shard.BreakerOpen {
		t.Fatalf("r0 breaker = %v after %d failures, want open", m.Replicas[0].Breaker, 2)
	}
	// With the breaker open, traffic skips r0 entirely.
	before := bad.calls.Load()
	for i := 0; i < 5; i++ {
		if _, _, err := rs.SearchContext(ctx, []uint32{1}, search.Options{Theta: 0.5}); err != nil {
			t.Fatalf("query with open breaker: %v", err)
		}
	}
	if bad.calls.Load() != before {
		t.Fatalf("open breaker leaked %d requests to r0", bad.calls.Load()-before)
	}
	// The replica recovers; a health probe closes the breaker.
	bad.err = nil
	bad.matches = good.matches
	if err := rs.CheckHealth(ctx); err != nil {
		t.Fatal(err)
	}
	if st := rs.ReplicaMetrics().Replicas[0].Breaker; st != shard.BreakerClosed {
		t.Fatalf("r0 breaker after successful probe = %v, want closed", st)
	}
	if _, _, err := rs.SearchContext(ctx, []uint32{1}, search.Options{Theta: 0.5}); err != nil {
		t.Fatal(err)
	}
	if bad.calls.Load() == before {
		t.Fatal("recovered replica took no traffic after the probe reset")
	}
}

// TestReplicaProberClosesBreaker: a set of two replicas probes them
// from construction on, with nothing to start. A replica whose breaker
// opened, then healed, rejoins rotation with no query traffic at all,
// and Close stops the loop (TestMain's leakcheck also fails the binary
// if it keeps running).
func TestReplicaProberClosesBreaker(t *testing.T) {
	bad := replicaStub("r0")
	bad.err = &shard.RemoteError{Shard: "r0", Status: 503, Msg: "down"}
	bad.down.Store(true) // probes fail too, so nothing closes the breaker early
	good := replicaStub("r1", search.Match{TextID: 1, Collisions: 5})

	const interval = 5 * time.Millisecond
	cfg := testReplicaCfg()
	cfg.BreakerFailures = 1
	cfg.ProbeInterval = interval
	rs := newReplicaSet(t, cfg, bad, good)
	if _, _, err := rs.SearchContext(context.Background(), []uint32{1}, search.Options{Theta: 0.5}); err != nil {
		t.Fatal(err)
	}
	if st := rs.ReplicaMetrics().Replicas[0].Breaker; st != shard.BreakerOpen {
		t.Fatalf("r0 breaker = %v after a failure at threshold 1, want open", st)
	}

	bad.err = nil
	calls := bad.calls.Load()
	bad.down.Store(false)
	deadline := time.Now().Add(200 * interval)
	for rs.ReplicaMetrics().Replicas[0].Breaker != shard.BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("r0 breaker still open %v after healing; the prober never closed it", 200*interval)
		}
		time.Sleep(interval)
	}
	if bad.calls.Load() != calls {
		t.Fatal("r0 took query traffic; the prober alone must close the breaker")
	}

	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	probes := bad.probes.Load()
	time.Sleep(5 * interval)
	if n := bad.probes.Load(); n != probes {
		t.Fatalf("prober ran %d more probes after Close", n-probes)
	}
}

func TestReplicaQuarantineOnBuildMismatch(t *testing.T) {
	r0 := replicaStub("r0", search.Match{TextID: 1, Collisions: 5})
	r1 := replicaStub("r1", search.Match{TextID: 9, Collisions: 9}) // diverging answer
	r2 := replicaStub("r2", search.Match{TextID: 1, Collisions: 5})
	r1.build = "build-2" // mid-rollout: r1 runs a different index build

	rs := newReplicaSet(t, testReplicaCfg(), r0, r1, r2)
	m := rs.ReplicaMetrics()
	if m.Replicas[1].Quarantined != true || m.Replicas[0].Quarantined || m.Replicas[2].Quarantined {
		t.Fatalf("quarantine flags = %+v, want only the minority build quarantined", m.Replicas)
	}
	if rs.BuildID() != "build-1" {
		t.Fatalf("group build = %q, want the majority build-1", rs.BuildID())
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		got, _, err := rs.SearchContext(ctx, []uint32{1}, search.Options{Theta: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].TextID != 1 {
			t.Fatalf("query %d: got %+v — a quarantined build's answer leaked into results", i, got)
		}
	}
	if r1.calls.Load() != 0 {
		t.Fatalf("quarantined replica served %d queries, want 0", r1.calls.Load())
	}
	// The rollout finishes: r1 now reports the group build and a health
	// probe lets it rejoin.
	r1.build = "build-1"
	r1.matches = r0.matches
	if err := rs.CheckHealth(ctx); err != nil {
		t.Fatal(err)
	}
	if rs.ReplicaMetrics().Replicas[1].Quarantined {
		t.Fatal("replica still quarantined after converging on the group build")
	}
}

// TestReplicaOutageMakesOneAttempt: once both breakers of a fully
// failed set are open, a query fails open to one replica and returns
// its error; the retry finds no closed replica and does not run. This
// is what bounds retry amplification during an outage.
func TestReplicaOutageMakesOneAttempt(t *testing.T) {
	r0 := replicaStub("r0")
	r0.err = &shard.RemoteError{Shard: "r0", Status: 503, Msg: "down"}
	r1 := replicaStub("r1")
	r1.err = &shard.RemoteError{Shard: "r1", Status: 503, Msg: "down"}

	cfg := testReplicaCfg()
	cfg.BreakerFailures = 2
	rs := newReplicaSet(t, cfg, r0, r1)
	ctx := context.Background()
	// Two legs of two attempts each open both breakers.
	for i := 0; i < 2; i++ {
		if _, _, err := rs.SearchContext(ctx, []uint32{1}, search.Options{Theta: 0.5}); err == nil {
			t.Fatalf("query %d succeeded with every replica down", i)
		}
	}
	for _, rep := range rs.ReplicaMetrics().Replicas {
		if rep.Breaker != shard.BreakerOpen {
			t.Fatalf("replica %s breaker = %v after 2 failures at threshold 2, want open", rep.Replica, rep.Breaker)
		}
	}
	before := r0.calls.Load() + r1.calls.Load()
	const queries = 6
	for i := 0; i < queries; i++ {
		_, st, err := rs.SearchContext(ctx, []uint32{1}, search.Options{Theta: 0.5})
		var re *shard.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("query %d: err = %v, want the replica's RemoteError", i, err)
		}
		if st == nil || len(st.Attempts) != 1 {
			t.Fatalf("query %d attempts = %+v, want exactly one", i, st)
		}
	}
	if n := r0.calls.Load() + r1.calls.Load() - before; n != queries {
		t.Fatalf("%d queries made %d attempts with both breakers open, want %d", queries, n, queries)
	}
}

// TestReplicaHedgeWinOpensBlackHoledBreaker: a primary that never
// answers loses every leg to a hedge, and each win counts one failure
// against it, so its breaker opens within BreakerFailures legs and
// later primaries go to the live replica without waiting for a hedge.
func TestReplicaHedgeWinOpensBlackHoledBreaker(t *testing.T) {
	hole := replicaStub("r0")
	returned := make(chan struct{}, 64)
	hole.hook = func(ctx context.Context, call int64) ([]search.Match, *search.Stats, error) {
		<-ctx.Done()
		returned <- struct{}{}
		return nil, nil, ctx.Err()
	}
	live := replicaStub("r1", search.Match{TextID: 2, Start: 0, End: 8, Collisions: 7})

	cfg := testReplicaCfg()
	cfg.HedgeDelayMin = 2 * time.Millisecond
	cfg.BreakerFailures = 3
	rs := newReplicaSet(t, cfg, hole, live)
	ctx := context.Background()
	// A beaten primary is still in flight for a moment after its leg
	// returns, and routing prefers the idle replica, so a leg counts
	// only when its primary reached r0.
	lost := 0
	for leg := 0; lost < cfg.BreakerFailures; leg++ {
		if leg == 10*cfg.BreakerFailures {
			t.Fatalf("only %d of %d legs put their primary on r0", lost, leg)
		}
		if st := rs.ReplicaMetrics().Replicas[0].Breaker; st != shard.BreakerClosed {
			t.Fatalf("r0 breaker = %v after %d lost legs, threshold %d", st, lost, cfg.BreakerFailures)
		}
		_, st, err := rs.SearchContext(ctx, []uint32{1}, search.Options{Theta: 0.5})
		if err != nil {
			t.Fatalf("leg %d: %v", leg, err)
		}
		if st.Attempts[0].Replica != "r0" {
			continue
		}
		if len(st.Attempts) != 2 || !st.Attempts[1].Hedge || st.Attempts[1].Err != "" {
			t.Fatalf("leg %d attempts = %+v, want the r0 primary beaten by a hedge", leg, st.Attempts)
		}
		lost++
		<-returned
	}
	m := rs.ReplicaMetrics()
	if m.Replicas[0].Breaker != shard.BreakerOpen {
		t.Fatalf("r0 breaker = %v after %d lost legs, want open", m.Replicas[0].Breaker, cfg.BreakerFailures)
	}
	if m.Replicas[0].Errors != 0 {
		t.Errorf("r0 errors = %d; a beaten attempt votes on the breaker only", m.Replicas[0].Errors)
	}
	calls := hole.calls.Load()
	for i := 0; i < 5; i++ {
		_, st, err := rs.SearchContext(ctx, []uint32{1}, search.Options{Theta: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Attempts) != 1 || st.Attempts[0].Replica != "r1" {
			t.Fatalf("attempts = %+v, want one primary on r1", st.Attempts)
		}
	}
	if n := hole.calls.Load() - calls; n != 0 {
		t.Fatalf("open breaker let %d primaries reach the black hole", n)
	}
}

// TestReplicaSetThroughCoordinator checks the full path: a coordinator
// whose first range is a 2-replica set (one replica down) returns the
// complete, non-partial answer, attributes the retry in PerShard, and
// exposes the replica breakdown through ShardMetrics.
func TestReplicaSetThroughCoordinator(t *testing.T) {
	bad := replicaStub("r0")
	bad.err = &shard.RemoteError{Shard: "r0", Status: 503, Msg: "down"}
	good := replicaStub("r1", search.Match{TextID: 3, Start: 1, End: 9, Collisions: 6})
	clients := []shard.ShardClient{bad, good}
	rs, err := shard.NewReplicaSet("range0", clients, testReplicaCfg())
	if err != nil {
		t.Fatal(err)
	}
	plain := newStubShard("range1", 10, search.Match{TextID: 2, Start: 0, End: 8, Collisions: 5})

	c, err := shard.NewCoordinator([]shard.ShardClient{rs, plain}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	got, st, err := c.SearchContext(context.Background(), []uint32{1, 2, 3}, search.Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial() || st.ShardsAnswered != 2 {
		t.Fatalf("stats %d/%d partial=%v; a masked replica failure must not flag partial",
			st.ShardsAnswered, st.ShardsTotal, st.Partial())
	}
	// Bases: range0=0 (10 texts), range1=10; text 2 on range1 → 12.
	if len(got) != 2 || got[0].TextID != 3 || got[1].TextID != 12 {
		t.Fatalf("merged matches = %+v, want texts 3 and 12", got)
	}
	if n := len(st.PerShard[0].Attempts); n != 2 {
		t.Fatalf("PerShard[0].Attempts = %+v, want the primary + retry", st.PerShard[0].Attempts)
	}
	if len(st.PerShard[1].Attempts) != 0 {
		t.Fatalf("plain shard grew attempts: %+v", st.PerShard[1].Attempts)
	}
	// The retry is recorded once, on its leg: the second attempt, on
	// the healthy replica, inside the leg's wall time.
	leg := st.PerShard[0]
	if a := leg.Attempts[1]; a.Attempt != 1 || a.Hedge || a.ReplicaIdx != 1 || a.Err != "" || a.Start+a.Dur > leg.Total {
		t.Fatalf("retry attempt = %+v in a leg of %v, want attempt 1 winning on r1 inside the leg", a, leg.Total)
	}
	if leg.Start < 0 || leg.Total <= 0 || leg.Start+leg.Total > st.Total {
		t.Fatalf("leg runs %v from %v, outside the query's %v", leg.Total, leg.Start, st.Total)
	}

	sm := c.ShardMetrics()
	if sm.Shards[0].ReplicaSet == nil {
		t.Fatal("ShardMetrics carries no replica breakdown for the replica set")
	}
	if sm.Shards[1].ReplicaSet != nil {
		t.Fatal("plain stub shard grew a replica breakdown")
	}
	reps := sm.Shards[0].ReplicaSet.Replicas
	if len(reps) != 2 || reps[0].Errors != 1 || reps[1].Retries != 1 {
		t.Fatalf("replica metrics = %+v, want r0 error + r1 retry", reps)
	}
	// Every attempt is accounted for: replica requests sum to the
	// attempt count the query reported.
	var attemptTotal int64
	for _, r := range reps {
		attemptTotal += r.Requests
	}
	if attemptTotal != int64(len(st.PerShard[0].Attempts)) {
		t.Fatalf("replica requests sum to %d, query recorded %d attempts",
			attemptTotal, len(st.PerShard[0].Attempts))
	}
}

func TestReplicaSetRejectsMismatchedCorpus(t *testing.T) {
	r0 := replicaStub("r0")
	r1 := newStubShard("r1", 11) // wrong NumTexts: not a copy of the shard
	r1.build = "build-1"
	_, err := shard.NewReplicaSet("group", []shard.ShardClient{r0, r1}, testReplicaCfg())
	if err == nil {
		t.Fatal("replicas with diverging NumTexts must be rejected at construction")
	}
}

func TestReplicaSetBuildTieBreaksToLowerIndex(t *testing.T) {
	// Two replicas with split builds and no majority: the tie breaks to
	// the lower index's build, quarantining r1 only.
	r0 := replicaStub("r0", search.Match{TextID: 1, Collisions: 5})
	r1 := replicaStub("r1")
	r1.build = "build-2"
	rs := newReplicaSet(t, testReplicaCfg(), r0, r1)
	if _, _, err := rs.SearchContext(context.Background(), []uint32{1}, search.Options{Theta: 0.5}); err != nil {
		t.Fatalf("tie-broken quarantine should leave r0 serving: %v", err)
	}
	if r1.calls.Load() != 0 {
		t.Fatal("quarantined replica took traffic")
	}
}
