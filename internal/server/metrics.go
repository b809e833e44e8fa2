package server

import (
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ndss/internal/obs"
	"ndss/internal/search"
	"ndss/internal/shard"
)

// endpoint enumerates the query endpoints whose latency is observed.
type endpoint int

const (
	epSearch endpoint = iota
	epTopK
	epExplain
	numEndpoints
)

var endpointNames = [numEndpoints]string{"search", "topk", "explain"}

func (e endpoint) String() string { return endpointNames[e] }

// outcome enumerates how an admitted request ended. Every admitted
// request records exactly one latency observation tagged with its
// endpoint and outcome (the satellite invariant TestLatencyAccounting
// pins down).
type outcome int

const (
	outOK outcome = iota
	outCached
	outBadRequest // post-admission validation failure (400)
	outTimeout    // deadline exceeded mid-query (504)
	outCanceled   // client went away mid-query (499)
	outInternal   // unexpected failure (500)
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "cached", "bad_request", "timeout", "canceled", "internal"}

func (o outcome) String() string { return outcomeNames[o] }

// metrics is the server's counter surface, exposed by /metrics as
// Prometheus text exposition.
// Everything is atomic; there is no lock on the request path.
// Admitted requests are counted once, in the latency matrix; the
// counters below also count requests turned away before admission.
type metrics struct {
	start time.Time

	inFlight atomic.Int64

	rejected  atomic.Int64 // 429: admission semaphore saturated
	refused   atomic.Int64 // 503: shutting down
	badInput  atomic.Int64 // 400
	tooLarge  atomic.Int64 // 413: request body over the size cap
	internals atomic.Int64 // 500

	cacheMisses atomic.Int64

	reloads        atomic.Int64 // successful backend swaps
	reloadFailures atomic.Int64 // reloads that kept the old backend

	ingests     atomic.Int64 // successful ingest mutations (segment appends)
	compactions atomic.Int64 // successful compactions (manual or automatic)

	// Distributed-tracing accounting: head-sampled queries, records
	// filed with the flight recorder per retention reason, and retained
	// records a full ring pushed out.
	traceSampled  atomic.Int64
	traceRetained [numTraceReasons]atomic.Int64
	traceEvicted  atomic.Int64

	// Aggregated per-query Stats of executed (non-cached) searches.
	// Exact because every query reports from its private I/O sink.
	matches   atomic.Int64
	ioBytes   atomic.Int64
	ioTimeNS  atomic.Int64
	cpuTimeNS atomic.Int64

	// latency holds one histogram per (endpoint, outcome) cell: every
	// admitted request lands in exactly one.
	latency [numEndpoints][numOutcomes]obs.Histogram

	// stages holds one histogram per pipeline stage, observed from each
	// executed query's StageTimes (cache hits and errors excluded: only
	// queries that ran the pipeline have a decomposition).
	stages [search.NumStages]obs.Histogram
}

// observe records the single per-request latency observation.
func (m *metrics) observe(ep endpoint, out outcome, d time.Duration) {
	m.latency[ep][out].Observe(d)
}

// retain bumps the retention counter of each reason in rs.
func (m *metrics) retain(rs reasonSet) {
	for i := range m.traceRetained {
		if rs&(1<<i) != 0 {
			m.traceRetained[i].Add(1)
		}
	}
}

func (m *metrics) recordStats(st *search.Stats) {
	if st == nil {
		return
	}
	m.matches.Add(int64(st.Matches))
	m.ioBytes.Add(st.IOBytes)
	m.ioTimeNS.Add(int64(st.IOTime))
	m.cpuTimeNS.Add(int64(st.CPUTime))
	for i, d := range st.StageTimes.Durations() {
		m.stages[i].Observe(d)
	}
}

// metricRow is one exposition series of a /metrics scrape: its family
// name, type and help, its labels and its value.
type metricRow struct {
	name, typ, help string
	labels          string // k="v" pairs from labelPairs
	// val is an int64, float64, bool or obs.HistogramSnapshot (buckets,
	// sum and count). A nil val declares the family with no series yet.
	val any
	ns  bool // val counts nanoseconds; the exposition shows seconds
}

// series returns the family row r with one labelled value.
func (r metricRow) series(labels string, val any) metricRow {
	r.labels, r.val = labels, val
	return r
}

// labelPairs formats exposition labels from alternating keys and
// values, escaping each value per the exposition format.
func labelPairs(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i] + `="` + labelEscaper.Replace(kv[i+1]) + `"`)
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// handleMetrics serves the exposition, whatever the request's Accept
// header asks for.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	w.Write(exposition(s.scrape()))
}

// scrape pins the backend and reads every counter, histogram and gauge
// once, with the index, shard and runtime snapshots, into rows. The
// exposition lists families in the order they first appear here.
func (s *Server) scrape() []metricRow {
	b, release := s.acquire()
	defer release()
	m := &s.met

	requests := metricRow{name: "ndss_requests_total", typ: "counter", help: "Admitted query requests by endpoint and outcome."}
	duration := metricRow{name: "ndss_request_duration_seconds", typ: "histogram", help: "Admitted request latency by endpoint and outcome."}
	rows := []metricRow{
		{name: "ndss_uptime_seconds", typ: "gauge", help: "Seconds since the server started.", val: time.Since(m.start).Seconds()},
		{name: "ndss_in_flight_requests", typ: "gauge", help: "Query requests currently executing.", val: m.inFlight.Load()},
		requests,
		{name: "ndss_requests_rejected_total", typ: "counter", help: "Requests rejected before admission (429 saturated).",
			val: m.rejected.Load()},
		{name: "ndss_requests_refused_total", typ: "counter", help: "Requests refused while shutting down (503).", val: m.refused.Load()},
		{name: "ndss_requests_too_large_total", typ: "counter", help: "Requests rejected for an over-limit body (413).",
			val: m.tooLarge.Load()},
		{name: "ndss_requests_bad_request_total", typ: "counter", help: "Requests answered 400 (malformed or invalid).",
			val: m.badInput.Load()},
		{name: "ndss_requests_internal_error_total", typ: "counter", help: "Requests answered 500 (internal failure).",
			val: m.internals.Load()},
		duration,
	}

	// The latency matrix is read once. Its cells are the admitted
	// requests, so the cache hits are its cached column. Only cells
	// that fired have a duration series.
	var hits int64
	for e := range m.latency {
		for o := range m.latency[e] {
			h := m.latency[e][o].Load()
			if outcome(o) == outCached {
				hits += h.Count
			}
			labels := labelPairs("endpoint", endpointNames[e], "outcome", outcomeNames[o])
			rows = append(rows, requests.series(labels, h.Count))
			if h.Count > 0 {
				rows = append(rows, duration.series(labels, h))
			}
		}
	}
	stage := metricRow{name: "ndss_stage_duration_seconds", typ: "histogram", help: "Per-query pipeline stage latency (executed queries)."}
	for i, name := range search.StageNames {
		rows = append(rows, stage.series(labelPairs("stage", name), m.stages[i].Load()))
	}

	var cacheLen, cacheCap int64
	if s.cache != nil {
		cacheLen, cacheCap = int64(s.cache.len()), int64(s.cfg.CacheEntries)
	}
	reloads := metricRow{name: "ndss_reloads_total", typ: "counter", help: "Backend hot reloads by result."}
	retainedBy := metricRow{name: "ndss_trace_retained_total", typ: "counter",
		help: "Traces retained in the trace store by retention reason (tail-based: decided at completion)."}
	buildID, meta := b.BuildID(), b.Meta()
	slowest, retained := s.rec.counts()
	rows = append(rows, []metricRow{
		{name: "ndss_cache_hits_total", typ: "counter", help: "Result cache hits.", val: hits},
		{name: "ndss_cache_misses_total", typ: "counter", help: "Result cache misses.", val: m.cacheMisses.Load()},
		{name: "ndss_cache_entries", typ: "gauge", help: "Result cache current entries.", val: cacheLen},
		{name: "ndss_cache_capacity", typ: "gauge", help: "Result cache capacity.", val: cacheCap},
		reloads.series(labelPairs("result", "ok"), m.reloads.Load()),
		reloads.series(labelPairs("result", "error"), m.reloadFailures.Load()),
		{name: "ndss_ingests_total", typ: "counter", help: "Successful ingest mutations (segment appends).", val: m.ingests.Load()},
		{name: "ndss_compactions_total", typ: "counter", help: "Successful segment compactions (manual or automatic).",
			val: m.compactions.Load()},
		{name: "ndss_query_matches_total", typ: "counter", help: "Matches returned by executed queries.", val: m.matches.Load()},
		{name: "ndss_query_io_bytes_total", typ: "counter", help: "Index bytes read by executed queries.", val: m.ioBytes.Load()},
		{name: "ndss_query_io_seconds_total", typ: "counter", help: "Time executed queries spent in index reads.",
			val: m.ioTimeNS.Load(), ns: true},
		{name: "ndss_query_cpu_seconds_total", typ: "counter", help: "CPU-side time of executed queries (total minus I/O).",
			val: m.cpuTimeNS.Load(), ns: true},
		{name: "ndss_index_info", typ: "gauge", help: "Active index build (constant 1, labeled).",
			labels: labelPairs("build_id", buildID, "k", strconv.Itoa(meta.K), "t", strconv.Itoa(meta.T)), val: int64(1)},
		{name: "ndss_index_texts", typ: "gauge", help: "Texts in the active index.", val: int64(meta.NumTexts)},
		{name: "ndss_segments_total", typ: "gauge", help: "Segments in the active index's manifest.", val: int64(segmentCount(b))},
		{name: "ndss_slowlog_entries", typ: "gauge", help: "Traces held by the slow-query flight recorder.",
			val: int64(slowest)},
		// Distributed-tracing families are in every scrape, zero-valued
		// when tracing never fired.
		{name: "ndss_trace_sampled_requests_total", typ: "counter", help: "Executed queries whose trace was head-sampled.",
			val: m.traceSampled.Load()},
		retainedBy,
		{name: "ndss_trace_store_entries", typ: "gauge", help: "Traces currently held by the trace store.",
			val: int64(retained)},
		{name: "ndss_trace_evictions_total", typ: "counter", help: "Retained traces evicted by ring capacity.", val: m.traceEvicted.Load()},
	}...)
	for i, reason := range traceReasons {
		rows = append(rows, retainedBy.series(labelPairs("reason", reason), m.traceRetained[i].Load()))
	}

	// A sharded backend (the scatter–gather coordinator) adds its
	// fan-out accounting, discovered structurally so the server keeps
	// working with any Backend.
	if p, ok := b.(interface{ ShardMetrics() shard.Metrics }); ok {
		rows = append(rows, shardRows(p.ShardMetrics())...)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return append(rows, []metricRow{
		{name: "go_goroutines", typ: "gauge", help: "Number of goroutines.", val: int64(runtime.NumGoroutine())},
		{name: "go_memstats_heap_alloc_bytes", typ: "gauge", help: "Heap bytes allocated and in use.", val: int64(ms.HeapAlloc)},
		{name: "go_memstats_heap_sys_bytes", typ: "gauge", help: "Heap bytes obtained from the OS.", val: int64(ms.HeapSys)},
		{name: "go_memstats_heap_objects", typ: "gauge", help: "Allocated heap objects.", val: int64(ms.HeapObjects)},
		{name: "go_gc_pause_seconds_total", typ: "counter", help: "Cumulative GC stop-the-world pause time.",
			val: int64(ms.PauseTotalNs), ns: true},
		{name: "go_gc_cycles_total", typ: "counter", help: "Completed GC cycles.", val: int64(ms.NumGC)},
	}...)
}

// shardRows renders a coordinator's per-shard and per-replica
// accounting. Shard and replica label values come from the serving
// topology (index dirs or URLs fixed at startup), never from request
// data. The replica families appear only when a replica set does.
func shardRows(sm shard.Metrics) []metricRow {
	requests := metricRow{name: "ndss_shard_requests_total", typ: "counter", help: "Fan-out query legs per shard."}
	errs := metricRow{name: "ndss_shard_errors_total", typ: "counter", help: "Fan-out query legs that failed or missed their budget, per shard."}
	latency := metricRow{name: "ndss_shard_request_duration_seconds", typ: "histogram", help: "Fan-out leg latency per shard."}
	rows := []metricRow{
		requests,
		errs,
		{name: "ndss_shard_partial_results_total", typ: "counter", help: "Queries answered with at least one shard missing.",
			val: sm.PartialResults},
		latency,
	}
	for _, sh := range sm.Shards {
		label := labelPairs("shard", sh.Shard)
		rows = append(rows,
			metricRow{name: "ndss_shard_info", typ: "gauge", help: "Build each shard serves (constant 1, labeled).",
				labels: labelPairs("shard", sh.Shard, "build_id", sh.BuildID), val: int64(1)},
			requests.series(label, sh.Requests),
			errs.series(label, sh.Errors))
		if sh.Latency.Count > 0 { // keep the exposition compact: only shards that served
			rows = append(rows, latency.series(label, sh.Latency))
		}
		rs := sh.ReplicaSet
		if rs == nil {
			continue
		}
		for _, r := range rs.Replicas {
			label := labelPairs("shard", sh.Shard, "replica", r.Replica)
			rows = append(rows, []metricRow{
				{name: "ndss_shard_replica_info", typ: "gauge", help: "Build each replica serves (constant 1, labeled).",
					labels: labelPairs("shard", sh.Shard, "replica", r.Replica, "build_id", r.BuildID), val: int64(1)},
				{name: "ndss_shard_replica_requests_total", typ: "counter", help: "Attempts launched at each replica (primaries, retries, hedges).",
					labels: label, val: r.Requests},
				{name: "ndss_shard_replica_errors_total", typ: "counter", help: "Attempts that failed at each replica (cancellations excluded).",
					labels: label, val: r.Errors},
				{name: "ndss_shard_retries_total", typ: "counter", help: "Retry attempts routed to each replica after a transient failure elsewhere.",
					labels: label, val: r.Retries},
				{name: "ndss_shard_hedges_total", typ: "counter", help: "Hedged (speculative) attempts routed to each replica.",
					labels: label, val: r.Hedges},
				{name: "ndss_shard_breaker_state", typ: "gauge", help: "Replica circuit-breaker state: 0 closed, 2 open.",
					labels: label, val: int64(r.Breaker)},
				{name: "ndss_shard_replica_quarantined", typ: "gauge", help: "1 while the replica is quarantined for a diverging build id.",
					labels: label, val: r.Quarantined},
			}...)
		}
		rows = append(rows, metricRow{name: "ndss_shard_hedge_wins_total", typ: "counter", help: "Legs won by the hedged attempt.",
			labels: label, val: rs.HedgeWins})
	}
	return rows
}
