package shard_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"ndss/internal/search"
	"ndss/internal/server"
	"ndss/internal/shard"
	"ndss/internal/shard/netfault"
)

// The chaos acceptance suite: a coordinator over 3 doc ranges × 2
// replicas, with scripted network faults killing one replica per range
// mid-run, must keep answering byte-identically to one merged index —
// top-k tie order included — with zero client-visible errors, every
// attempt accounted in the metrics. Only when a range is fully dead
// does the query degrade, and then into a flagged partial (fast
// failures) or the caller's own deadline (black hole), never a hang.

type chaosFixture struct {
	texts  [][]uint32
	single interface {
		SearchContext(context.Context, []uint32, search.Options) ([]search.Match, *search.Stats, error)
		SearchTopKContext(context.Context, []uint32, search.TopKOptions) ([]search.Match, *search.Stats, error)
	}
	coord *shard.Coordinator
	ft    *netfault.Transport
	// hosts[range][replica] is the host:port key netfault faults key on.
	hosts [][2]string
	sets  []*shard.ReplicaSet
}

// chaosReplicaCfg is tuned for the chaos runs: a generous retry budget
// (the point is masking faults, not load shedding), a breaker that
// trips quickly, and a fixed seed so routing decisions replay.
func chaosReplicaCfg() shard.ReplicaConfig {
	return shard.ReplicaConfig{
		RetryBudget:     1.0,
		RetryBurst:      1000,
		HedgeDelayMin:   5 * time.Millisecond,
		BreakerFailures: 3,
		Seed:            42,
	}
}

// newChaosFixture builds the 48-text corpus split into 3 ranges of 16.
func newChaosFixture(t *testing.T) *chaosFixture {
	return newReplicaFixture(t, 3, chaosReplicaCfg())
}

// newReplicaFixture splits the 48-text corpus into ranges equal doc
// ranges, each served by two replica servers sharing one engine (so the
// replicas agree on build id by construction), all spoken to through
// one fault-injecting transport.
func newReplicaFixture(t testing.TB, ranges int, cfg shard.ReplicaConfig) *chaosFixture {
	t.Helper()
	texts := fixtureTexts(t)
	single := buildEngine(t, texts)
	t.Cleanup(func() { single.Close() })

	f := &chaosFixture{
		texts: texts, single: single, ft: netfault.New(nil),
		hosts: make([][2]string, ranges), sets: make([]*shard.ReplicaSet, ranges),
	}
	fc := &http.Client{Transport: f.ft}

	per := len(texts) / ranges
	clients := make([]shard.ShardClient, 0, ranges)
	for r := 0; r < ranges; r++ {
		e := buildEngine(t, texts[r*per:(r+1)*per])
		t.Cleanup(func() { e.Close() })
		reps := make([]shard.ShardClient, 2)
		for j := 0; j < 2; j++ {
			ts := httptest.NewServer(server.New(e, server.Config{}))
			t.Cleanup(ts.Close)
			u, err := url.Parse(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			f.hosts[r][j] = u.Host
			hs, err := shard.NewHTTPShard(context.Background(), ts.URL, shard.HTTPOptions{Client: fc})
			if err != nil {
				t.Fatal(err)
			}
			reps[j] = hs
		}
		rs, err := shard.NewReplicaSet("", reps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.sets[r] = rs
		clients = append(clients, rs)
	}
	coord, err := shard.NewCoordinator(clients, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	f.coord = coord
	return f
}

func (f *chaosFixture) queries() [][]uint32 {
	return [][]uint32{
		f.texts[0][:12],
		f.texts[20][:12],
		f.texts[40][:12],
		f.texts[5][:30],
	}
}

// runAll compares every query/option combination against the merged
// single index, failing on any divergence, error, or partial flag, and
// returns how many attempts each range's replica set logged.
func (f *chaosFixture) runAll(t *testing.T, phase string) (attempts [3]int64) {
	t.Helper()
	ctx := context.Background()
	for qi, q := range f.queries() {
		for oi, opts := range []search.Options{
			{Theta: 0.5},
			{Theta: 0.8, Verify: true},
		} {
			want, _, err := f.single.SearchContext(ctx, q, opts)
			if err != nil {
				t.Fatalf("%s query %d opts %d: single: %v", phase, qi, oi, err)
			}
			got, st, err := f.coord.SearchContext(ctx, q, opts)
			if err != nil {
				t.Fatalf("%s query %d opts %d: client-visible error: %v", phase, qi, oi, err)
			}
			if st.Partial() {
				t.Fatalf("%s query %d opts %d: flagged partial with a live replica per range: %+v", phase, qi, oi, st.PerShard)
			}
			if !sameMatches(got, want) {
				t.Errorf("%s query %d opts %d: diverged from the merged index:\n got %+v\nwant %+v", phase, qi, oi, got, want)
			}
			for r := range attempts {
				attempts[r] += int64(len(st.PerShard[r].Attempts))
			}
		}
		// Top-k through the same faults: tie order must survive replica
		// failover byte-for-byte.
		for _, n := range []int{1, 3, 100} {
			opts := search.TopKOptions{N: n, FloorTheta: 0.5}
			want, _, err := f.single.SearchTopKContext(ctx, q, opts)
			if err != nil {
				t.Fatalf("%s query %d n=%d: single: %v", phase, qi, n, err)
			}
			got, st, err := f.coord.SearchTopKContext(ctx, q, opts)
			if err != nil {
				t.Fatalf("%s query %d n=%d: client-visible error: %v", phase, qi, n, err)
			}
			if !sameMatches(got, want) {
				t.Errorf("%s query %d n=%d: top-k diverged:\n got %+v\nwant %+v", phase, qi, n, got, want)
			}
			for r := range attempts {
				attempts[r] += int64(len(st.PerShard[r].Attempts))
			}
		}
	}
	return attempts
}

func TestChaosReplicaKillIsInvisible(t *testing.T) {
	f := newChaosFixture(t)

	// Phase 1: healthy baseline.
	healthy := f.runAll(t, "healthy")

	// Phase 2: kill replica 0 of every range mid-run — connection resets,
	// as if the process died. Every query must still match the merged
	// index with zero client-visible errors and no partial flags.
	for r := 0; r < 3; r++ {
		f.ft.SetAll(f.hosts[r][0], netfault.Fault{Kind: netfault.Reset})
	}
	killed := f.runAll(t, "killed")

	// Every attempt is accounted for: the per-replica request counters
	// must equal the attempts the queries reported, so no attempt went
	// unmetered and no metric counted a phantom.
	for r := 0; r < 3; r++ {
		m := f.sets[r].ReplicaMetrics()
		var requests int64
		for _, rep := range m.Replicas {
			requests += rep.Requests
		}
		if want := healthy[r] + killed[r]; requests != want {
			t.Errorf("range %d: replica requests total %d, queries recorded %d attempts", r, requests, want)
		}
		// The kill was actually exercised: the dead replica accumulated
		// errors and the set retried around it.
		var retries, errs int64
		for _, rep := range m.Replicas {
			retries += rep.Retries
			errs += rep.Errors
		}
		if errs == 0 || retries == 0 {
			t.Errorf("range %d: errors=%d retries=%d; the kill phase should have forced failovers", r, errs, retries)
		}
	}

	// Phase 3: scripted flakiness instead of a hard kill — a 503 burst
	// and a torn response on the surviving replicas must also be masked.
	f.ft.Clear(f.hosts[0][0])
	f.ft.Script(f.hosts[0][0],
		netfault.Fault{Kind: netfault.Status, Status: 503},
		netfault.Fault{Kind: netfault.Torn, KeepBytes: 64},
	)
	f.runAll(t, "flaky")
}

func TestChaosDeadRangeDegradesToPartial(t *testing.T) {
	f := newChaosFixture(t)

	// Both replicas of range 1 die with fast failures: queries keep
	// answering from the other ranges as flagged partials, never errors.
	f.ft.SetAll(f.hosts[1][0], netfault.Fault{Kind: netfault.Reset})
	f.ft.SetAll(f.hosts[1][1], netfault.Fault{Kind: netfault.Reset})

	got, st, err := f.coord.SearchContext(context.Background(), f.queries()[0], search.Options{Theta: 0.5})
	if err != nil {
		t.Fatalf("dead range must degrade to a partial, got error: %v", err)
	}
	if !st.Partial() || st.ShardsAnswered != 2 {
		t.Fatalf("stats %d/%d partial=%v, want flagged 2/3 partial", st.ShardsAnswered, st.ShardsTotal, st.Partial())
	}
	if st.PerShard[1].Answered || st.PerShard[1].Err == "" {
		t.Fatalf("dead range attribution = %+v, want an unanswered shard with its error", st.PerShard[1])
	}
	// Every failed attempt on the dead range is still in the attribution.
	if len(st.PerShard[1].Attempts) < 2 {
		t.Fatalf("dead range logged %d attempts, want the primary plus retries: %+v",
			len(st.PerShard[1].Attempts), st.PerShard[1].Attempts)
	}
	// The live ranges' matches are intact (query 0 probes range 0).
	if len(got) == 0 {
		t.Fatal("partial result lost the live ranges' matches")
	}
}

func TestChaosBlackHoleRespectsParentDeadline(t *testing.T) {
	f := newChaosFixture(t)

	// Both replicas of range 2 black-hole: no errors, no bytes, nothing.
	// The only bound is the caller's deadline, and the query must return
	// by it — an unanswerable shard must never hang the client.
	f.ft.SetAll(f.hosts[2][0], netfault.Fault{Kind: netfault.BlackHole})
	f.ft.SetAll(f.hosts[2][1], netfault.Fault{Kind: netfault.BlackHole})

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := f.coord.SearchContext(ctx, f.queries()[0], search.Options{Theta: 0.5})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("black-holed range under a caller deadline: err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("query returned after %v, well past the 300ms parent deadline", elapsed)
	}

	// With a per-shard budget the same black hole degrades to a partial
	// inside the budget instead of consuming the caller's deadline.
	budgeted, err := shard.NewCoordinator([]shard.ShardClient{f.sets[0], f.sets[1], f.sets[2]},
		shard.Config{ShardBudget: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Not Closed: the replica sets belong to f.coord's cleanup.
	got, st, err := budgeted.SearchContext(context.Background(), f.queries()[0], search.Options{Theta: 0.5})
	if err != nil {
		t.Fatalf("budgeted query over a black-holed range: %v", err)
	}
	if !st.Partial() || st.PerShard[2].Answered {
		t.Fatalf("stats %+v, want the black-holed range flagged", st.PerShard)
	}
	if len(got) == 0 {
		t.Fatal("budgeted partial lost the live ranges' matches")
	}
}
