package server

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"ndss/internal/index"
	"ndss/internal/shard"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics goldens under testdata/")

// goldenBackend is a stub backend with fixed I/O counters, a segment
// count and a literal shard snapshot: one plain shard and one shard
// served by a replica set.
type goldenBackend struct {
	*stubBackend
}

func (goldenBackend) IOStats() index.IOStats {
	return index.IOStats{BytesRead: 123456789, ReadTime: 2500 * time.Microsecond}
}

func (goldenBackend) SegmentCount() int { return 3 }

func (goldenBackend) ShardMetrics() shard.Metrics {
	var plain shard.ShardMetrics
	plain.Shard, plain.BuildID, plain.Requests, plain.Errors = "/data/shard-a", "build-a", 11, 1
	plain.Latency.Buckets[1], plain.Latency.Buckets[4], plain.Latency.Buckets[12] = 4, 2, 1
	plain.Latency.Count, plain.Latency.SumNS = 7, int64(1500*time.Millisecond)
	return shard.Metrics{
		PartialResults: 4,
		Shards: []shard.ShardMetrics{plain, {
			Shard: "http://127.0.0.1:9002", BuildID: "build-b", Requests: 9, Errors: 2,
			ReplicaSet: &shard.ReplicaSetMetrics{HedgeWins: 2, BudgetDenied: 3, Replicas: []shard.ReplicaMetrics{
				{Replica: "http://127.0.0.1:9002", BuildID: "build-b", Requests: 7, Errors: 2, Retries: 1, Hedges: 1, Breaker: shard.BreakerOpen},
				{Replica: "http://127.0.0.1:9003", BuildID: "build-c", Requests: 5, Errors: 1, Retries: 3, Hedges: 2, Breaker: shard.BreakerClosed, Quarantined: true},
			}},
		}},
	}
}

// goldenServer returns a server whose every /metrics counter is
// nonzero and fixed. The explain endpoint is left without observations,
// so its empty latency row is pinned too.
func goldenServer(t *testing.T) *Server {
	t.Helper()
	stub := newStubBackend(t, `build\7"q`, 1, false)
	srv := New(goldenBackend{stub}, Config{CacheEntries: 8, SlowlogEntries: 4})
	m := &srv.met
	m.inFlight.Add(2)
	for i, c := range []interface{ Add(int64) int64 }{
		&m.rejected, &m.refused, &m.badInput, &m.tooLarge, &m.internals, &m.cacheMisses,
		&m.reloads, &m.reloadFailures, &m.ingests, &m.compactions,
		&m.traceSampled, &m.traceEvicted, &m.matches, &m.ioBytes,
	} {
		c.Add(int64(3 + i))
	}
	m.ioTimeNS.Add(int64(1250 * time.Microsecond))
	m.cpuTimeNS.Add(int64(40 * time.Millisecond))
	for i := range m.traceRetained {
		m.traceRetained[i].Add(int64(20 + i))
	}
	cells := []struct {
		ep  endpoint
		out outcome
		d   []time.Duration
	}{
		{epSearch, outOK, []time.Duration{100 * time.Microsecond, 700 * time.Microsecond, 3 * time.Millisecond}},
		{epSearch, outCached, []time.Duration{50 * time.Microsecond, 60 * time.Microsecond}},
		{epSearch, outTimeout, []time.Duration{2 * time.Second}},
		{epSearch, outInternal, []time.Duration{12 * time.Millisecond}},
		{epTopK, outOK, []time.Duration{8 * time.Millisecond}},
		{epTopK, outBadRequest, []time.Duration{30 * time.Microsecond}},
		{epTopK, outCanceled, []time.Duration{40 * time.Millisecond}},
		{epTopK, outCached, []time.Duration{70 * time.Microsecond}},
	}
	for _, c := range cells {
		for _, d := range c.d {
			m.observe(c.ep, c.out, d)
		}
	}
	for i := range m.stages {
		for j := 0; j <= i; j++ {
			m.stages[i].Observe(time.Duration(i+1) * 300 * time.Microsecond)
		}
	}
	srv.cache.put(&cacheEntry{key: "a"})
	srv.cache.put(&cacheEntry{key: "b"})
	srv.rec.add(queryRecord{RequestID: "q1", DurationNS: 5e6, reasons: reasonSlow})
	srv.rec.add(queryRecord{RequestID: "q2", DurationNS: 1e6, reasons: reasonSampled})
	srv.rec.add(queryRecord{RequestID: "q3", DurationNS: 2e6, Err: "boom", reasons: reasonError})
	return srv
}

// goldenMasks blank what a fixed state cannot fix: the uptime, the Go
// runtime gauges (JSON "runtime" object, exposition go_* samples).
var goldenMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"uptime_seconds":[^,}]*`), `"uptime_seconds":"<masked>"`},
	{regexp.MustCompile(`"runtime":\{[^}]*\}`), `"runtime":"<masked>"`},
	{regexp.MustCompile(`(?m)^(ndss_uptime_seconds|go_[a-z_]+) .*$`), `$1 <masked>`},
}

// TestMetricsGolden pins both /metrics renderings byte for byte. Run
// with -update to rewrite testdata/metrics.{json,prom} after a
// deliberate format change.
func TestMetricsGolden(t *testing.T) {
	srv := goldenServer(t)
	for _, tc := range []struct{ file, accept string }{
		{"metrics.json", "application/json"},
		{"metrics.prom", ""},
	} {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.file, rec.Code)
		}
		got := rec.Body.Bytes()
		for _, m := range goldenMasks {
			got = m.re.ReplaceAll(got, []byte(m.with))
		}
		path := filepath.Join("testdata", tc.file)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from the golden (run with -update after a deliberate change)\n--- got ---\n%s", tc.file, got)
		}
	}
}
