package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
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
	Spans     []obs.FlightSpan `json:"spans"`
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
// stats tree — one leg with a failed primary and a winning retry, one
// single-attempt leg — and checks the grafting rules: wire span ids
// survive, remote spans nest under the winning attempt shifted onto
// the query's time axis, attrs ride along, and stage timings stay
// monotonic, disjoint, and within their carrier.
func TestTraceTreeAssembly(t *testing.T) {
	remote0 := []obs.Span{
		obs.NewSpan(search.StageNames[0], 0, time.Millisecond, nil), // sketch
		obs.NewSpan(search.StageNames[2], time.Millisecond, 2*time.Millisecond, // gather
			[]obs.Attr{{Key: "io_bytes", Val: 4096}}),
	}
	remote1 := []obs.Span{obs.NewSpan(search.StageNames[0], 0, 2*time.Millisecond, nil)}
	coordSpans := []obs.Span{obs.NewSpan("shard_merge", 11*time.Millisecond, time.Millisecond, nil)}

	st := &search.Stats{
		ShardsTotal:    2,
		ShardsAnswered: 2,
		Spans:          coordSpans,
		PerShard: []search.ShardStats{
			{
				Shard: "s0", Answered: true, IOBytes: 4096,
				Total: 10 * time.Millisecond, SpanID: "leg0leg0leg0leg0", Start: time.Millisecond,
				Spans: remote0,
				Attempts: []search.ShardAttempt{
					{Replica: "r0", ReplicaIdx: 0, Attempt: 0, Err: "connection reset",
						SpanID: "a0a0a0a0a0a0a0a0", Start: 0, Dur: 2 * time.Millisecond},
					{Replica: "r1", ReplicaIdx: 1, Attempt: 1,
						SpanID: "a1a1a1a1a1a1a1a1", Start: 2500 * time.Microsecond, Dur: 7 * time.Millisecond},
				},
			},
			{
				Shard: "s1", Answered: true,
				Total: 5 * time.Millisecond, SpanID: "leg1leg1leg1leg1", Start: 2 * time.Millisecond,
				Spans: remote1,
			},
		},
	}

	tc := obs.NewTraceContext(true)
	rs := *st
	rs.Spans = nil
	flight := assembleFlight(&queryRecord{
		Endpoint: "search", DurationNS: int64(12 * time.Millisecond),
		Stats: &rs, Spans: st.Spans, tc: tc,
	})
	byID, root := flightIndex(t, flight)

	if root.Name != "search" || root.SpanID != tc.SpanIDString() || root.DurNS != int64(12*time.Millisecond) {
		t.Fatalf("root = %+v, want search span %s over 12ms", root, tc.SpanIDString())
	}

	// The legs keep their wire ids and hang off the root at their
	// fan-out offsets.
	leg0, ok := byID["leg0leg0leg0leg0"]
	if !ok || leg0.ParentID != root.SpanID || leg0.Name != "shard" || leg0.StartNS != int64(time.Millisecond) {
		t.Fatalf("leg0 = %+v (ok=%v), want a shard child of the root at 1ms", leg0, ok)
	}
	if v, ok := flightAttr(leg0, "shard"); !ok || v != 0 {
		t.Errorf("leg0 shard attr = %d (ok=%v), want 0", v, ok)
	}
	if v, ok := flightAttr(leg0, "io_bytes"); !ok || v != 4096 {
		t.Errorf("leg0 io_bytes attr = %d (ok=%v), want 4096", v, ok)
	}

	// The failed primary and the winning retry are siblings under the
	// leg, each with its wire id; only the failure is flagged.
	failed, ok := byID["a0a0a0a0a0a0a0a0"]
	if !ok || failed.ParentID != leg0.SpanID || failed.Name != "shard_attempt" {
		t.Fatalf("failed attempt = %+v (ok=%v), want shard_attempt under leg0", failed, ok)
	}
	if v, ok := flightAttr(failed, "failed"); !ok || v != 1 {
		t.Errorf("failed attempt lacks failed=1: %+v", failed)
	}
	winner, ok := byID["a1a1a1a1a1a1a1a1"]
	if !ok || winner.ParentID != leg0.SpanID || winner.Name != "shard_retry" {
		t.Fatalf("winning retry = %+v (ok=%v), want shard_retry under leg0", winner, ok)
	}
	if _, ok := flightAttr(winner, "failed"); ok {
		t.Errorf("winning retry flagged failed: %+v", winner)
	}
	// Attempt starts are leg-relative on the wire, absolute in the tree.
	if winner.StartNS != int64(3500*time.Microsecond) || winner.DurNS != int64(7*time.Millisecond) {
		t.Errorf("winner timing = start %d dur %d, want 3.5ms/7ms", winner.StartNS, winner.DurNS)
	}

	// The remote stage spans graft under the winning attempt, shifted
	// by its absolute start, attrs intact.
	stages := childrenOf(flight, winner.SpanID)
	if len(stages) != 2 || stages[0].Name != "sketch" || stages[1].Name != "gather" {
		t.Fatalf("winner's remote spans = %+v, want [sketch gather]", stages)
	}
	if stages[0].StartNS != winner.StartNS {
		t.Errorf("remote sketch start = %d, want the attempt's %d", stages[0].StartNS, winner.StartNS)
	}
	if v, ok := flightAttr(stages[1], "io_bytes"); !ok || v != 4096 {
		t.Errorf("remote gather io_bytes = %d (ok=%v), want 4096", v, ok)
	}
	// Monotonic and disjoint on the shared axis, summing within the
	// attempt that carried them.
	var sum int64
	for i, sp := range stages {
		sum += sp.DurNS
		if sp.StartNS < winner.StartNS || sp.StartNS+sp.DurNS > winner.StartNS+winner.DurNS {
			t.Errorf("stage %s [%d,%d] escapes its attempt [%d,%d]",
				sp.Name, sp.StartNS, sp.StartNS+sp.DurNS, winner.StartNS, winner.StartNS+winner.DurNS)
		}
		if i > 0 && sp.StartNS < stages[i-1].StartNS+stages[i-1].DurNS {
			t.Errorf("stage %s overlaps its predecessor", sp.Name)
		}
	}
	if sum > leg0.DurNS {
		t.Errorf("stage durations sum to %d, above the leg's %d", sum, leg0.DurNS)
	}

	// A leg without replica attempts carries its remote spans directly.
	leg1 := byID["leg1leg1leg1leg1"]
	kids := childrenOf(flight, leg1.SpanID)
	if len(kids) != 1 || kids[0].Name != "sketch" || kids[0].StartNS != leg1.StartNS {
		t.Fatalf("leg1 children = %+v, want one sketch at the leg start", kids)
	}

	// The coordinator's merge tail hangs off the root; its leg-bookkeeping
	// spans do not reappear.
	var merges, legSpans int
	for _, sp := range childrenOf(flight, root.SpanID) {
		switch sp.Name {
		case "shard_merge":
			merges++
		case "shard":
			legSpans++
		}
	}
	if merges != 1 || legSpans != 2 {
		t.Fatalf("root children have %d shard_merge and %d shard legs, want 1 and 2", merges, legSpans)
	}
}

// TestChaosTraceRetryHedgeTree is the distributed-tracing acceptance
// run: a real HTTP coordinator over 2 ranges × 2 replica servers, a
// scripted connection reset forcing a retry on range 0 and scripted
// delays forcing a hedge on range 1, with head sampling on. The
// /debug/trace/{request_id} endpoint must return one connected tree
// containing the failed attempt, the winning attempt, and the remote
// per-stage spans of every answering shard, with stage durations
// summing within their leg's latency.
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

	byID, root := flightIndex(t, e.Spans)
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
			} else if len(childrenOf(e.Spans, a.SpanID)) > 0 {
				winner = a
			}
		}
		if winner.SpanID == "" {
			t.Fatalf("leg %s has no winning attempt carrying remote spans: %+v", leg.SpanID, attempts)
		}
		// The answering shard's own pipeline decomposition crossed the
		// wire and nests under exactly the attempt that carried it.
		stageSpans := map[string]int{}
		var sum int64
		for _, sp := range childrenOf(e.Spans, winner.SpanID) {
			for _, name := range search.StageNames {
				if sp.Name == name {
					stageSpans[name]++
					sum += sp.DurNS
				}
			}
		}
		for _, name := range search.StageNames {
			if stageSpans[name] != 1 {
				t.Errorf("leg %s winner carries %d remote %s spans, want 1", leg.SpanID, stageSpans[name], name)
			}
		}
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
	_ = byID
}
