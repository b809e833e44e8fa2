package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/obs"
	"ndss/internal/search"
	"ndss/internal/shard"
	"ndss/internal/shard/netfault"
	"ndss/internal/wire"
)

// flightIndex maps a flight's span ids to spans and verifies the basic
// tree shape on the way: ids unique, exactly one root, every parent
// present.
func flightIndex(t *testing.T, spans []obs.FlightSpan) (byID map[string]obs.FlightSpan, root obs.FlightSpan) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("empty flight")
	}
	byID = make(map[string]obs.FlightSpan, len(spans))
	roots := 0
	for _, sp := range spans {
		if sp.SpanID == "" {
			t.Fatalf("span %q has no id", sp.Name)
		}
		if _, dup := byID[sp.SpanID]; dup {
			t.Fatalf("duplicate span id %s", sp.SpanID)
		}
		byID[sp.SpanID] = sp
		if sp.ParentID == "" {
			roots++
			root = sp
		}
	}
	if roots != 1 {
		t.Fatalf("flight has %d roots, want exactly 1: %+v", roots, spans)
	}
	for _, sp := range spans {
		if sp.ParentID == "" {
			continue
		}
		if _, ok := byID[sp.ParentID]; !ok {
			t.Fatalf("span %s (%s) references missing parent %s", sp.SpanID, sp.Name, sp.ParentID)
		}
	}
	return byID, root
}

// childrenOf returns the direct children of id in insertion order.
func childrenOf(spans []obs.FlightSpan, id string) []obs.FlightSpan {
	var out []obs.FlightSpan
	for _, sp := range spans {
		if sp.ParentID == id {
			out = append(out, sp)
		}
	}
	return out
}

// traceEntry decodes the fields of a GET /debug/trace/{request_id} body
// that the tests read.
type traceEntry struct {
	RequestID string           `json:"request_id"`
	TraceID   string           `json:"trace_id"`
	Sampled   bool             `json:"sampled"`
	Reasons   []string         `json:"reasons"`
	Err       string           `json:"err"`
	Stats     *search.Stats    `json:"stats"`
	Spans     []obs.FlightSpan `json:"spans"`
}

// checkStages asserts that parent's stage children in a flight are
// exactly one span per stage, in stage order, each as long as its field
// of want and laid end to end, and returns where they start and their
// summed duration.
func checkStages(t *testing.T, spans []obs.FlightSpan, parent string, want search.StageTimes) (start, sum int64) {
	t.Helper()
	var stages []obs.FlightSpan
	for _, sp := range childrenOf(spans, parent) {
		if slices.Contains(search.StageNames[:], sp.Name) {
			stages = append(stages, sp)
		}
	}
	if len(stages) != search.NumStages {
		t.Fatalf("span %s has %d stage children, want %d: %+v", parent, len(stages), search.NumStages, stages)
	}
	d := want.Durations()
	start = stages[0].StartNS
	at := start
	for i, sp := range stages {
		if sp.Name != search.StageNames[i] || sp.DurNS != int64(d[i]) || sp.StartNS != at {
			t.Errorf("stage %d is %s at %d for %d, want %s at %d for its stage time %d",
				i, sp.Name, sp.StartNS, sp.DurNS, search.StageNames[i], at, d[i])
		}
		at += sp.DurNS
	}
	return start, at - start
}

// checkShardMerge asserts that the root has one shard_merge child, as
// long as the coordinator's own merge time (its Merge beyond the
// answering legs') and ending where the root ends.
func checkShardMerge(t *testing.T, spans []obs.FlightSpan, root obs.FlightSpan, st *search.Stats) {
	t.Helper()
	own := st.StageTimes.Merge
	for _, ps := range st.PerShard {
		if ps.Answered {
			own -= ps.StageTimes.Merge
		}
	}
	var merges []obs.FlightSpan
	for _, sp := range childrenOf(spans, root.SpanID) {
		if sp.Name == "shard_merge" {
			merges = append(merges, sp)
		}
	}
	if len(merges) != 1 {
		t.Fatalf("root has %d shard_merge children, want 1", len(merges))
	}
	if m := merges[0]; m.DurNS != int64(own) || m.StartNS+m.DurNS != root.DurNS {
		t.Errorf("shard_merge at %d for %d, want the coordinator's own %d ending with the root at %d",
			m.StartNS, m.DurNS, own, root.DurNS)
	}
}

func flightAttr(sp obs.FlightSpan, key string) (int64, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// TestTraceTreeAssembly drives assembleFlight with a synthetic sharded
// record — one leg with a failed primary and a winning retry, one
// single-attempt leg, one leg that missed its budget — and checks the
// drawing rules: wire span ids survive, the fan-out clock ends with the
// root, each answering leg's stage times become six stage spans under
// the winning attempt, and the coordinator's own merge time becomes the
// shard_merge span.
func TestTraceTreeAssembly(t *testing.T) {
	ms := time.Millisecond
	leg0 := search.StageTimes{Sketch: ms, Plan: ms / 2, Gather: 2 * ms, Count: ms, Merge: ms / 2}
	leg1 := search.StageTimes{Sketch: 2 * ms, Merge: ms / 4}
	merged := leg0.Add(leg1)
	merged.Merge += ms // the coordinator's own merge
	st := &search.Stats{
		ShardsTotal:    3,
		ShardsAnswered: 2,
		IOBytes:        4096,
		Total:          11 * ms,
		StageTimes:     merged,
		PerShard: []search.ShardStats{
			{
				Shard: "s0", Answered: true, IOBytes: 4096, StageTimes: leg0,
				Total: 9 * ms, SpanID: "leg0leg0leg0leg0", Start: ms,
				Attempts: []search.ShardAttempt{
					{Replica: "r0", ReplicaIdx: 0, Attempt: 0, Err: "connection reset",
						SpanID: "a0a0a0a0a0a0a0a0", Start: 0, Dur: 2 * ms},
					{Replica: "r1", ReplicaIdx: 1, Attempt: 1,
						SpanID: "a1a1a1a1a1a1a1a1", Start: 2500 * time.Microsecond, Dur: 6 * ms},
				},
			},
			{
				Shard: "s1", Answered: true, StageTimes: leg1,
				Total: 5 * ms, SpanID: "leg1leg1leg1leg1", Start: 2 * ms,
			},
			{Shard: "s2", Err: "deadline exceeded", Total: 9 * ms, SpanID: "leg2leg2leg2leg2", Start: ms},
		},
	}

	tc := obs.NewTraceContext(true)
	flight := assembleFlight(&queryRecord{Endpoint: "search", DurationNS: int64(12 * ms), Stats: st, tc: tc})
	byID, root := flightIndex(t, flight)

	if root.Name != "search" || root.SpanID != tc.SpanIDString() || root.DurNS != int64(12*ms) {
		t.Fatalf("root = %+v, want search span %s over 12ms", root, tc.SpanIDString())
	}

	// The legs keep their wire ids and hang off the root at their
	// fan-out offsets, the fan-out's 11ms ending with the root's 12ms.
	l0, ok := byID["leg0leg0leg0leg0"]
	if !ok || l0.ParentID != root.SpanID || l0.Name != "shard" || l0.StartNS != int64(2*ms) {
		t.Fatalf("leg0 = %+v (ok=%v), want a shard child of the root at 2ms", l0, ok)
	}
	if v, ok := flightAttr(l0, "shard"); !ok || v != 0 {
		t.Errorf("leg0 shard attr = %d (ok=%v), want 0", v, ok)
	}
	if v, ok := flightAttr(l0, "io_bytes"); !ok || v != 4096 {
		t.Errorf("leg0 io_bytes attr = %d (ok=%v), want 4096", v, ok)
	}

	// The failed primary and the winning retry are siblings under the
	// leg, each with its wire id; only the failure is flagged, and only
	// the winner carries stage spans.
	failed, ok := byID["a0a0a0a0a0a0a0a0"]
	if !ok || failed.ParentID != l0.SpanID || failed.Name != "shard_attempt" {
		t.Fatalf("failed attempt = %+v (ok=%v), want shard_attempt under leg0", failed, ok)
	}
	if v, ok := flightAttr(failed, "failed"); !ok || v != 1 {
		t.Errorf("failed attempt lacks failed=1: %+v", failed)
	}
	if kids := childrenOf(flight, failed.SpanID); len(kids) != 0 {
		t.Errorf("failed attempt carries %+v", kids)
	}
	winner, ok := byID["a1a1a1a1a1a1a1a1"]
	if !ok || winner.ParentID != l0.SpanID || winner.Name != "shard_retry" {
		t.Fatalf("winning retry = %+v (ok=%v), want shard_retry under leg0", winner, ok)
	}
	if _, ok := flightAttr(winner, "failed"); ok {
		t.Errorf("winning retry flagged failed: %+v", winner)
	}
	// Attempt starts are leg-relative on the wire, absolute in the tree.
	if winner.StartNS != int64(4500*time.Microsecond) || winner.DurNS != int64(6*ms) {
		t.Errorf("winner timing = start %d dur %d, want 4.5ms/6ms", winner.StartNS, winner.DurNS)
	}
	start, sum := checkStages(t, flight, winner.SpanID, leg0)
	if start != winner.StartNS || sum > winner.DurNS {
		t.Errorf("leg0 stages [%d,%d] escape the winning attempt [%d,%d]",
			start, start+sum, winner.StartNS, winner.StartNS+winner.DurNS)
	}

	// A leg without replica attempts carries its stage spans directly.
	l1 := byID["leg1leg1leg1leg1"]
	if start, _ := checkStages(t, flight, l1.SpanID, leg1); start != l1.StartNS {
		t.Errorf("leg1 stages start at %d, want the leg's %d", start, l1.StartNS)
	}
	// A leg that did not answer has no stage times to draw.
	if kids := childrenOf(flight, "leg2leg2leg2leg2"); len(kids) != 0 {
		t.Errorf("unanswered leg carries %+v", kids)
	}

	checkShardMerge(t, flight, root, st)
	if n := len(childrenOf(flight, root.SpanID)); n != 4 {
		t.Errorf("root has %d children, want 3 legs and shard_merge", n)
	}
}

// TestChaosTraceRetryHedgeTree is the distributed-tracing acceptance
// run: a real HTTP coordinator over 2 ranges × 2 replica servers, a
// scripted connection reset forcing a retry on range 0 and scripted
// delays forcing a hedge on range 1, with head sampling on. The
// /debug/trace/{request_id} endpoint must return one connected tree
// containing the failed attempt, the winning attempt carrying the six
// stage spans of its shard's stage times, summing within the leg's
// latency, and the coordinator's shard_merge.
func TestChaosTraceRetryHedgeTree(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 7, DupRate: 0.6, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	texts := make([][]uint32, c.NumTexts())
	for i := range texts {
		texts[i] = c.Text(uint32(i))
	}

	ft := netfault.New(nil)
	fc := &http.Client{Transport: ft}
	var hosts [2][2]string
	clients := make([]shard.ShardClient, 0, 2)
	for r := 0; r < 2; r++ {
		dir := t.TempDir()
		cc := corpus.New(texts[r*20 : (r+1)*20])
		if _, err := index.Build(cc, dir, index.BuildOptions{K: 8, Seed: 21, T: 5}); err != nil {
			t.Fatal(err)
		}
		e := openDB(t, dir, cc)
		t.Cleanup(func() { e.Close() })
		reps := make([]shard.ShardClient, 2)
		for j := 0; j < 2; j++ {
			remote := httptest.NewServer(New(e, Config{CacheEntries: -1}))
			t.Cleanup(remote.Close)
			u, err := url.Parse(remote.URL)
			if err != nil {
				t.Fatal(err)
			}
			hosts[r][j] = u.Host
			hs, err := shard.NewHTTPShard(context.Background(), remote.URL, shard.HTTPOptions{Client: fc})
			if err != nil {
				t.Fatal(err)
			}
			reps[j] = hs
		}
		rs, err := shard.NewReplicaSet(fmt.Sprintf("range%d", r), reps, shard.ReplicaConfig{
			HedgeDelayMin:   5 * time.Millisecond,
			BreakerFailures: 3,
			Seed:            42,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, rs)
	}
	coord, err := shard.NewCoordinator(clients, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ts := httptest.NewServer(New(coord, Config{TraceSampleRate: 1, CacheEntries: -1}))
	defer ts.Close()

	// One scripted reset on replica 0 of range 0: idle replicas tie to
	// the lower index, so the primary dies there and the retry, on the
	// other replica, wins. One scripted delay on each replica of
	// range 1, well past HedgeDelayMin: the primary stalls, a hedge
	// launches, both eventually answer and the faster wins. Scripts are
	// indexed by a per-host request counter that the construction-time
	// health checks already advanced, so pad each script up to the
	// host's current count.
	scriptNext := func(host string, f netfault.Fault) {
		ft.Script(host, append(make([]netfault.Fault, ft.Calls(host)), f)...)
	}
	scriptNext(hosts[0][0], netfault.Fault{Kind: netfault.Reset})
	scriptNext(hosts[1][0], netfault.Fault{Kind: netfault.Delay, Delay: 30 * time.Millisecond})
	scriptNext(hosts[1][1], netfault.Fault{Kind: netfault.Delay, Delay: 30 * time.Millisecond})

	resp, body := postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: texts[25][:12], Theta: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search through faults: %d (%s), want the retry and hedge to mask them", resp.StatusCode, body)
	}
	reqID := resp.Header.Get(obs.HeaderRequestID)
	if reqID == "" {
		t.Fatal("response carries no request id")
	}

	tresp, err := ts.Client().Get(ts.URL + "/debug/trace/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace/%s: %d, want a retained trace", reqID, tresp.StatusCode)
	}
	var e traceEntry
	if err := json.NewDecoder(tresp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != reqID || !e.Sampled || e.TraceID == "" {
		t.Fatalf("trace entry = id %q sampled %v trace %q", e.RequestID, e.Sampled, e.TraceID)
	}
	reasons := map[string]bool{}
	for _, r := range e.Reasons {
		reasons[r] = true
	}
	if !reasons["sampled"] || !reasons["retried"] || !reasons["hedged"] {
		t.Errorf("retention reasons = %v, want sampled+retried+hedged", e.Reasons)
	}

	_, root := flightIndex(t, e.Spans)
	if root.Name != "search" {
		t.Errorf("root span = %q, want the endpoint name", root.Name)
	}

	legs := childrenOf(e.Spans, root.SpanID)
	var shardLegs []obs.FlightSpan
	for _, sp := range legs {
		if sp.Name == "shard" {
			shardLegs = append(shardLegs, sp)
		}
	}
	if len(shardLegs) != 2 {
		t.Fatalf("flight has %d shard legs, want 2: %+v", len(shardLegs), legs)
	}

	var sawFailed, sawHedge bool
	for _, leg := range shardLegs {
		attempts := childrenOf(e.Spans, leg.SpanID)
		if len(attempts) < 2 {
			t.Fatalf("leg %s has %d attempts, want the fault plus the masking attempt: %+v",
				leg.SpanID, len(attempts), attempts)
		}
		var winner obs.FlightSpan
		for _, a := range attempts {
			switch a.Name {
			case "shard_attempt", "shard_retry", "shard_hedge":
			default:
				t.Fatalf("leg child %q is not an attempt", a.Name)
			}
			if a.Name == "shard_hedge" {
				sawHedge = true
			}
			if _, failed := flightAttr(a, "failed"); failed {
				sawFailed = true
				if kids := childrenOf(e.Spans, a.SpanID); len(kids) > 0 {
					t.Errorf("failed attempt %s carries %+v", a.SpanID, kids)
				}
			} else {
				winner = a
			}
		}
		if winner.SpanID == "" {
			t.Fatalf("leg %s has no winning attempt: %+v", leg.SpanID, attempts)
		}
		// The answering shard's own pipeline decomposition crossed the
		// wire and nests under exactly the attempt that carried it.
		i, _ := flightAttr(leg, "shard")
		_, sum := checkStages(t, e.Spans, winner.SpanID, e.Stats.PerShard[i].StageTimes)
		if sum > leg.DurNS {
			t.Errorf("leg %s remote stage durations sum to %dns, above the leg's %dns", leg.SpanID, sum, leg.DurNS)
		}
		if winner.StartNS < leg.StartNS || winner.StartNS+winner.DurNS > leg.StartNS+leg.DurNS {
			t.Errorf("winning attempt [%d,%d] escapes its leg [%d,%d]",
				winner.StartNS, winner.StartNS+winner.DurNS, leg.StartNS, leg.StartNS+leg.DurNS)
		}
	}
	if !sawFailed {
		t.Error("no failed attempt span in the flight; the scripted reset should appear")
	}
	if !sawHedge {
		t.Error("no hedge span in the flight; the scripted delay should force one")
	}
	checkShardMerge(t, e.Spans, root, e.Stats)
}

// TestTailRetainedShardedTree runs a real coordinator over two HTTP
// shards with head sampling off: a query kept by a tail rule alone —
// slow, then partial once a shard is gone — gets the same tree a
// sampled one does. Under each answering leg hang six stage spans
// whose durations are that leg's PerShard stage times and sum within
// the leg; a leg that did not answer has none; and one shard_merge
// span ends where the root ends.
func TestTailRetainedShardedTree(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 7, DupRate: 0.6, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	texts := make([][]uint32, c.NumTexts())
	for i := range texts {
		texts[i] = c.Text(uint32(i))
	}
	var remotes []*httptest.Server
	var clients []shard.ShardClient
	for r := 0; r < 2; r++ {
		dir := t.TempDir()
		cc := corpus.New(texts[r*20 : (r+1)*20])
		if _, err := index.Build(cc, dir, index.BuildOptions{K: 8, Seed: 21, T: 5}); err != nil {
			t.Fatal(err)
		}
		e := openDB(t, dir, cc)
		t.Cleanup(func() { e.Close() })
		remote := httptest.NewServer(New(e, Config{CacheEntries: -1}))
		t.Cleanup(remote.Close)
		hs, err := shard.NewHTTPShard(context.Background(), remote.URL, shard.HTTPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		remotes, clients = append(remotes, remote), append(clients, hs)
	}
	coord, err := shard.NewCoordinator(clients, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ts := httptest.NewServer(New(coord, Config{CacheEntries: -1, SlowQueryThreshold: time.Nanosecond}))
	defer ts.Close()

	for _, tc := range []struct {
		name     string
		reason   string
		answered int
	}{
		{"slow", "slow", 2},
		{"partial", "partial", 1},
	} {
		if tc.answered == 1 {
			remotes[1].Close()
		}
		id := postTraced(t, ts, obs.NewTraceContext(false), wire.Request{Tokens: texts[5][:12], Theta: 0.5}, http.StatusOK)
		body, status := getTrace(t, ts, id)
		if status != http.StatusOK {
			t.Fatalf("%s: /debug/trace/%s: %d, want a retained record", tc.name, id, status)
		}
		e := decodeTrace(t, body)
		if e.Sampled || !slices.Contains(e.Reasons, tc.reason) || slices.Contains(e.Reasons, "sampled") {
			t.Fatalf("%s: sampled %v reasons %v, want tail-retained as %s alone", tc.name, e.Sampled, e.Reasons, tc.reason)
		}
		if e.Stats.ShardsAnswered != tc.answered {
			t.Fatalf("%s: %d shards answered, want %d", tc.name, e.Stats.ShardsAnswered, tc.answered)
		}
		_, root := flightIndex(t, e.Spans)
		answered := 0
		for _, leg := range childrenOf(e.Spans, root.SpanID) {
			if leg.Name != "shard" {
				continue
			}
			i, _ := flightAttr(leg, "shard")
			ps := e.Stats.PerShard[i]
			if !ps.Answered {
				if kids := childrenOf(e.Spans, leg.SpanID); len(kids) != 0 {
					t.Errorf("%s: unanswered leg %d carries %+v", tc.name, i, kids)
				}
				continue
			}
			answered++
			start, sum := checkStages(t, e.Spans, leg.SpanID, ps.StageTimes)
			if sum <= 0 || start != leg.StartNS || sum > leg.DurNS {
				t.Errorf("%s: leg %d stages [%d,%d] (sum %d) do not nest in the leg [%d,%d]",
					tc.name, i, start, start+sum, sum, leg.StartNS, leg.StartNS+leg.DurNS)
			}
		}
		if answered != tc.answered {
			t.Errorf("%s: %d legs carry stages, want %d", tc.name, answered, tc.answered)
		}
		checkShardMerge(t, e.Spans, root, e.Stats)
	}
}
