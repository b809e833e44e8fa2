package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ndss/internal/obs"
	"ndss/internal/search"
	"ndss/internal/shard"
	"ndss/internal/wire"
)

// stallingBackend parks every search until the caller gives up while
// stall is set, and passes searches through otherwise.
type stallingBackend struct {
	Backend
	stall atomic.Bool
}

func (b *stallingBackend) SearchContext(ctx context.Context, q []uint32, o search.Options) ([]search.Match, *search.Stats, error) {
	if b.stall.Load() {
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	return b.Backend.SearchContext(ctx, q, o)
}

// postTraced posts a search request under the given trace context and
// returns the response's request id.
func postTraced(t *testing.T, ts *httptest.Server, tc obs.TraceContext, req wire.Request, wantStatus int) string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/search", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(obs.HeaderTraceparent, tc.Traceparent())
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("search: status %d, want %d", resp.StatusCode, wantStatus)
	}
	return resp.Header.Get(obs.HeaderRequestID)
}

// getTrace fetches /debug/trace/{id}, decoded, and reports the status.
func getTrace(t *testing.T, ts *httptest.Server, id string) (map[string]any, int) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// decodeTrace re-decodes a /debug/trace/{id} body into traceEntry.
func decodeTrace(t *testing.T, body map[string]any) traceEntry {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var e traceEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	return e
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func promText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestNilLoggerDiscards: a server configured without a Logger must not
// format any line, so its handler reports every level disabled.
func TestNilLoggerDiscards(t *testing.T) {
	_, engine, _ := testFixture(t)
	srv := New(engine, Config{})
	if srv.log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("default logger is enabled at ERROR; it formats lines nobody reads")
	}
}

// TestSampledFailureCounted: a head-sampled query that fails after
// admission counts as sampled, like an executed one, and its record is
// retained as [error sampled] — never as slow, even past the threshold —
// and logs one INFO "query" line carrying the error.
func TestSampledFailureCounted(t *testing.T) {
	for _, slow := range []time.Duration{0, time.Nanosecond} {
		t.Run(fmt.Sprintf("slow=%v", slow), func(t *testing.T) {
			_, engine, q := testFixture(t)
			b := &stallingBackend{Backend: engine}
			b.stall.Store(true)
			var buf syncBuffer
			srv := New(b, Config{
				CacheEntries: -1, SlowQueryThreshold: slow,
				Logger: slog.New(slog.NewTextHandler(&buf, nil)),
			})
			ts := httptest.NewServer(srv)
			defer ts.Close()

			id := postTraced(t, ts, obs.NewTraceContext(true),
				wire.Request{Tokens: q, Theta: 0.5, TimeoutMS: 20}, http.StatusGatewayTimeout)
			text := promText(t, ts)
			for _, want := range []string{
				"ndss_trace_sampled_requests_total 1\n",
				`ndss_trace_retained_total{reason="error"} 1` + "\n",
				`ndss_trace_retained_total{reason="slow"} 0` + "\n",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("/metrics missing %q after one sampled, failed query", strings.TrimSpace(want))
				}
			}
			body, status := getTrace(t, ts, id)
			if status != http.StatusOK {
				t.Fatalf("/debug/trace/%s: %d (%v), want the failed query's record", id, status, body)
			}
			e := decodeTrace(t, body)
			if e.Err == "" || !e.Sampled || strings.Join(e.Reasons, ",") != "error,sampled" {
				t.Errorf("failed record: err %q sampled %v reasons %v, want an error, sampled, [error sampled]",
					e.Err, e.Sampled, e.Reasons)
			}
			_, root := flightIndex(t, e.Spans)
			if len(e.Spans) != 1 {
				t.Errorf("failed query's flight has %d spans, want its root alone", len(e.Spans))
			}
			if v, ok := flightAttr(root, "failed"); !ok || v != 1 {
				t.Errorf("failed query's root lacks failed=1: %+v", root)
			}
			lines := logLines(buf.String(), "query")
			if len(lines) != 1 || !strings.Contains(lines[0], "level=INFO") || !strings.Contains(lines[0], "error=") {
				t.Errorf("want one INFO record line with the error, got:\n%s", buf.String())
			}
			if n := len(logLines(buf.String(), "slow query")); n != 0 {
				t.Errorf("%d slow-query lines for a failed query", n)
			}
		})
	}
}

// TestTailRetentionSurvivesSampledFlood is the tail-based guarantee: an
// errored query's record outlives twice the recorder's capacity of
// head-sampled traffic, which pushes out only sampled-only records; and
// those sampled records in turn outlive unsampled traffic.
func TestTailRetentionSurvivesSampledFlood(t *testing.T) {
	const capacity = 4
	_, engine, q := testFixture(t)
	b := &stallingBackend{Backend: engine}
	srv := New(b, Config{CacheEntries: -1, SlowlogEntries: capacity})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	b.stall.Store(true)
	errID := postTraced(t, ts, obs.NewTraceContext(false),
		wire.Request{Tokens: q, Theta: 0.5, TimeoutMS: 20}, http.StatusGatewayTimeout)
	b.stall.Store(false)
	var sampledIDs []string
	for i := 0; i < 2*capacity; i++ {
		sampledIDs = append(sampledIDs, postTraced(t, ts, obs.NewTraceContext(true),
			wire.Request{Tokens: q, Theta: 0.5}, http.StatusOK))
	}
	for i := 0; i < 2*capacity; i++ {
		postTraced(t, ts, obs.NewTraceContext(false), wire.Request{Tokens: q, Theta: 0.5}, http.StatusOK)
	}

	body, status := getTrace(t, ts, errID)
	if status != http.StatusOK {
		t.Fatalf("errored query's record evicted by sampled traffic: /debug/trace/%s = %d", errID, status)
	}
	if e := decodeTrace(t, body); strings.Join(e.Reasons, ",") != "error" {
		t.Errorf("errored record reasons = %v, want [error]", e.Reasons)
	}
	kept := sampledIDs[len(sampledIDs)-(capacity-1):]
	for _, id := range kept {
		if _, status := getTrace(t, ts, id); status != http.StatusOK {
			t.Errorf("sampled record %s evicted by unsampled traffic: %d", id, status)
		}
	}
	text := promText(t, ts)
	for _, want := range []string{
		"ndss_trace_evictions_total 0\n",
		`ndss_trace_retained_total{reason="error"} 1` + "\n",
		`ndss_trace_retained_total{reason="sampled"} 8` + "\n",
		"ndss_trace_store_entries 4\n", // the errored record and the 3 newest sampled ones
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}

	// The listing puts the tail-retained record first, then the
	// sampled-only ones newest first.
	resp, err := ts.Client().Get(ts.URL + "/debug/trace/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Traces []traceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tr := range list.Traces {
		got = append(got, tr.RequestID)
	}
	want := []string{errID, kept[2], kept[1], kept[0]}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("listing = %v, want %v", got, want)
	}
}

// TestRecorderRetainedRanking pins how the full retained view makes
// room: a sampled-only record gives way first; with none left, a tail
// record evicts the oldest record and a sampled-only one is not kept.
func TestRecorderRetainedRanking(t *testing.T) {
	l := newRecorder(2)
	add := func(id string, rs reasonSet) bool {
		return l.add(queryRecord{RequestID: id, reasons: rs})
	}
	ids := func() string {
		var out []string
		for _, tr := range l.index() {
			out = append(out, tr.RequestID)
		}
		return strings.Join(out, " ")
	}
	add("s1", reasonSampled)
	add("e1", reasonError)
	if add("e2", reasonSlow) || ids() != "e2 e1" {
		t.Fatalf("a tail record replaces the sampled one without an eviction: got %q", ids())
	}
	if add("s2", reasonSampled) || ids() != "e2 e1" {
		t.Fatalf("a sampled record must not displace tail records: got %q", ids())
	}
	if !add("e3", reasonError|reasonSampled) || ids() != "e3 e2" {
		t.Fatalf("a tail record evicts the oldest when all are tail records: got %q", ids())
	}
	if _, retained := l.counts(); retained != 2 {
		t.Errorf("counts: retained %d, want 2", retained)
	}
}

// TestUnsampledRecordFlight: an unsampled query with no tail reason
// still resolves while it is in the recent view, to its root plus this
// process's stage spans, and both debug bodies keep their fields.
func TestUnsampledRecordFlight(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id := postTraced(t, ts, obs.NewTraceContext(false), wire.Request{Tokens: q, Theta: 0.5, Verify: true}, http.StatusOK)
	body, status := getTrace(t, ts, id)
	if status != http.StatusOK {
		t.Fatalf("/debug/trace/%s: %d, want the recent record", id, status)
	}
	want := "duration_ns endpoint num_tokens reasons request_id sampled spans start stats theta trace_id"
	if got := strings.Join(sortedKeys(body), " "); got != want {
		t.Errorf("/debug/trace/{id} keys = %s, want %s", got, want)
	}
	e := decodeTrace(t, body)
	if e.Sampled || len(e.Reasons) != 0 {
		t.Errorf("unsampled record: sampled %v reasons %v, want neither", e.Sampled, e.Reasons)
	}
	_, root := flightIndex(t, e.Spans)
	if root.Name != "search" {
		t.Errorf("root span %q, want the endpoint", root.Name)
	}
	names := map[string]bool{}
	for _, sp := range childrenOf(e.Spans, root.SpanID) {
		names[sp.Name] = true
	}
	for _, stage := range []string{"sketch", "plan", "gather", "count", "verify"} {
		if !names[stage] {
			t.Errorf("flight lacks local %s span under the root (have %v)", stage, names)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sl struct {
		Slowest []map[string]any `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sl); err != nil {
		t.Fatal(err)
	}
	want = "duration_ns endpoint num_tokens request_id spans start stats theta"
	if len(sl.Slowest) != 1 || strings.Join(sortedKeys(sl.Slowest[0]), " ") != want {
		t.Errorf("/debug/slowlog entries = %v, want one with keys %s", sl.Slowest, want)
	}
}

// logLines returns the lines of a text-handler log that carry msg.
func logLines(out, msg string) []string {
	var lines []string
	for _, ln := range strings.Split(out, "\n") {
		if strings.Contains(ln, "msg="+msg+" ") || strings.Contains(ln, `msg="`+msg+`" `) {
			lines = append(lines, ln)
		}
	}
	return lines
}

// TestRecordLogLine: every executed query logs exactly one record line
// — INFO "query", or WARN "slow query" past the threshold — and a
// cache hit logs none.
func TestRecordLogLine(t *testing.T) {
	stages := []string{"sketch=", "plan=", "gather=", "count=", "merge=", "verify="}

	t.Run("engine", func(t *testing.T) {
		_, engine, q := testFixture(t)
		var buf syncBuffer
		srv := New(engine, Config{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		tc := obs.NewTraceContext(false)
		id := postTraced(t, ts, tc, wire.Request{Tokens: q, Theta: 0.5}, http.StatusOK)
		postTraced(t, ts, tc, wire.Request{Tokens: q, Theta: 0.5}, http.StatusOK) // cache hit

		lines := logLines(buf.String(), "query")
		if len(lines) != 1 {
			t.Fatalf("%d record lines for one executed query and one cache hit:\n%s", len(lines), buf.String())
		}
		for _, want := range append([]string{"level=INFO", "request_id=" + id, "trace_id=" + tc.TraceIDString()}, stages...) {
			if !strings.Contains(lines[0], want) {
				t.Errorf("record line lacks %q: %s", want, lines[0])
			}
		}
		if n := len(logLines(buf.String(), "slow query")); n != 0 {
			t.Errorf("%d slow-query lines with no threshold set", n)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		failing := newSlowShardBackend(t, false, 1)
		failing.err = &shard.RemoteError{Shard: "rep0", Status: 503, Msg: "draining"}
		rs, err := shard.NewReplicaSet("rset", []shard.ShardClient{
			shard.NewLocal("rep0", failing), shard.NewLocal("rep1", newSlowShardBackend(t, false, 2)),
		}, shard.ReplicaConfig{
			RetryBurst: 10, HedgeDelayMin: -1, BreakerFailures: 100, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		coord, err := shard.NewCoordinator([]shard.ShardClient{rs}, shard.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		var buf syncBuffer
		srv := New(coord, Config{CacheEntries: -1, Logger: slog.New(slog.NewTextHandler(&buf, nil))})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		id := postTraced(t, ts, obs.NewTraceContext(false), wire.Request{Tokens: []uint32{1, 2, 3}, Theta: 0.5}, http.StatusOK)
		lines := logLines(buf.String(), "query")
		if len(lines) != 1 {
			t.Fatalf("%d record lines for one sharded query:\n%s", len(lines), buf.String())
		}
		for _, want := range append([]string{
			"request_id=" + id, "trace_id=", "shards_total=1", "shard_retries=1", "shard_hedges=0",
			"shard_0.name=rset", "shard_0.attempts=2",
		}, stages...) {
			if !strings.Contains(lines[0], want) {
				t.Errorf("sharded record line lacks %q: %s", want, lines[0])
			}
		}
	})

	t.Run("slow", func(t *testing.T) {
		_, engine, q := testFixture(t)
		var buf syncBuffer
		srv := New(engine, Config{
			Logger:             slog.New(slog.NewTextHandler(&buf, nil)),
			SlowQueryThreshold: time.Nanosecond,
		})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		id := postTraced(t, ts, obs.NewTraceContext(false), wire.Request{Tokens: q, Theta: 0.5}, http.StatusOK)
		slow := logLines(buf.String(), "slow query")
		if len(slow) != 1 || !strings.Contains(slow[0], "level=WARN") || !strings.Contains(slow[0], "request_id="+id) {
			t.Fatalf("want one WARN slow-query line for the query, got:\n%s", buf.String())
		}
		if n := len(logLines(buf.String(), "query")); n != 0 {
			t.Errorf("%d INFO record lines beside the slow-query line", n)
		}
	})
}
