package server

import (
	"runtime"
	"strconv"
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

func (e endpoint) String() string {
	switch e {
	case epSearch:
		return "search"
	case epTopK:
		return "topk"
	case epExplain:
		return "explain"
	}
	return "unknown"
}

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

func (o outcome) String() string {
	switch o {
	case outOK:
		return "ok"
	case outCached:
		return "cached"
	case outBadRequest:
		return "bad_request"
	case outTimeout:
		return "timeout"
	case outCanceled:
		return "canceled"
	case outInternal:
		return "internal"
	}
	return "unknown"
}

// metrics is the server's counter surface, exposed by /metrics as
// Prometheus text exposition (default) or JSON (content negotiation).
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

	// Aggregated per-query Stats/IOStats of executed (non-cached)
	// searches. Exact because every query reports from its private sink.
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

func traceRetainedMap(m *metrics) map[string]int64 {
	out := make(map[string]int64, numTraceReasons)
	for i, r := range traceReasons {
		out[r] = m.traceRetained[i].Load()
	}
	return out
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

// aggregateLatency folds every (endpoint, outcome) histogram into one,
// preserving the pre-observability JSON schema where "latency" was a
// single request histogram.
func (m *metrics) aggregateLatency() (buckets [len(obs.LatencyBucketsMS) + 1]int64, count, sumNS int64) {
	for e := 0; e < int(numEndpoints); e++ {
		for o := 0; o < int(numOutcomes); o++ {
			b, c, s := m.latency[e][o].Load()
			for i := range buckets {
				buckets[i] += b[i]
			}
			count += c
			sumNS += s
		}
	}
	return buckets, count, sumNS
}

// runtimeSnapshot samples the Go runtime gauges exposed on /metrics.
type runtimeSnapshot struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
	GCPauseTotalNS uint64 `json:"gc_pause_total_ns"`
	NumGC          uint32 `json:"num_gc"`
}

func sampleRuntime() runtimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnapshot{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		HeapObjects:    ms.HeapObjects,
		GCPauseTotalNS: ms.PauseTotalNs,
		NumGC:          ms.NumGC,
	}
}

// snapshot renders the counters into the JSON shape /metrics serves for
// Accept: application/json. The pre-observability keys are preserved
// verbatim; "endpoints", "stages" and "runtime" are additive.
func (m *metrics) snapshot(cacheLen, cacheCap int, ix indexSnapshot, sm *shard.Metrics) map[string]any {
	aggBuckets, count, sumNS := m.aggregateLatency()
	buckets := make(map[string]int64, len(obs.LatencyBucketsMS)+1)
	for i, ub := range obs.LatencyBucketsMS {
		buckets[formatMS(ub)] = aggBuckets[i]
	}
	buckets["+Inf"] = aggBuckets[len(obs.LatencyBucketsMS)]
	meanMS := 0.0
	if count > 0 {
		meanMS = float64(sumNS) / float64(count) / float64(time.Millisecond)
	}

	// The request counters are the latency matrix's row and column sums.
	var rows [numEndpoints]int64
	var cols [numOutcomes]int64
	endpoints := make(map[string]any, numEndpoints)
	for e := endpoint(0); e < numEndpoints; e++ {
		outs := make(map[string]any, numOutcomes)
		for o := outcome(0); o < numOutcomes; o++ {
			_, c, s := m.latency[e][o].Load()
			rows[e] += c
			cols[o] += c
			if c == 0 {
				continue
			}
			outs[o.String()] = map[string]int64{"count": c, "sum_ns": s}
		}
		endpoints[e.String()] = outs
	}
	hits, misses := cols[outCached], m.cacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	stages := make(map[string]any, search.NumStages)
	for i, name := range search.StageNames {
		_, c, s := m.stages[i].Load()
		stages[name] = map[string]int64{"count": c, "sum_ns": s}
	}

	out := map[string]any{
		"uptime_seconds": time.Since(m.start).Seconds(),
		"in_flight":      m.inFlight.Load(),
		"requests": map[string]int64{
			"total":          count,
			"search":         rows[epSearch],
			"topk":           rows[epTopK],
			"explain":        rows[epExplain],
			"rejected":       m.rejected.Load(),
			"refused":        m.refused.Load(),
			"bad_request":    m.badInput.Load(),
			"too_large":      m.tooLarge.Load(),
			"timeout":        cols[outTimeout],
			"canceled":       cols[outCanceled],
			"internal_error": m.internals.Load(),
		},
		"latency": map[string]any{
			"count":      count,
			"mean_ms":    meanMS,
			"buckets_ms": buckets,
		},
		"endpoints": endpoints,
		"stages":    stages,
		"cache": map[string]any{
			"hits":     hits,
			"misses":   misses,
			"hit_rate": hitRate,
			"size":     cacheLen,
			"capacity": cacheCap,
		},
		"reloads": map[string]int64{
			"completed": m.reloads.Load(),
			"failed":    m.reloadFailures.Load(),
		},
		"segments": map[string]int64{
			"ingests":     m.ingests.Load(),
			"compactions": m.compactions.Load(),
		},
		"query": map[string]int64{
			"matches":     m.matches.Load(),
			"io_bytes":    m.ioBytes.Load(),
			"io_time_ns":  m.ioTimeNS.Load(),
			"cpu_time_ns": m.cpuTimeNS.Load(),
		},
		"trace": map[string]any{
			"sampled":  m.traceSampled.Load(),
			"retained": traceRetainedMap(m),
			"evicted":  m.traceEvicted.Load(),
		},
		"index":   ix,
		"runtime": sampleRuntime(),
	}
	if sm != nil {
		shards := make([]map[string]any, len(sm.Shards))
		for i, sh := range sm.Shards {
			shards[i] = map[string]any{
				"shard":    sh.Shard,
				"build_id": sh.BuildID,
				"requests": sh.Requests,
				"errors":   sh.Errors,
				"latency": map[string]int64{
					"count":  sh.LatencyCount,
					"sum_ns": sh.LatencySumNS,
				},
			}
			if rs := sh.ReplicaSet; rs != nil {
				replicas := make([]map[string]any, len(rs.Replicas))
				for j, r := range rs.Replicas {
					replicas[j] = map[string]any{
						"replica":     r.Replica,
						"build_id":    r.BuildID,
						"requests":    r.Requests,
						"errors":      r.Errors,
						"retries":     r.Retries,
						"hedges":      r.Hedges,
						"breaker":     r.Breaker.String(),
						"quarantined": r.Quarantined,
					}
				}
				shards[i]["replicas"] = replicas
				shards[i]["hedge_wins"] = rs.HedgeWins
				shards[i]["retry_budget_denied"] = rs.BudgetDenied
			}
		}
		out["shards"] = map[string]any{
			"partial_results": sm.PartialResults,
			"shards":          shards,
		}
	}
	return out
}

// indexSnapshot is the index-level slice of /metrics.
type indexSnapshot struct {
	BuildID    string `json:"build_id"`
	K          int    `json:"k"`
	T          int    `json:"t"`
	NumTexts   int    `json:"num_texts"`
	Segments   int    `json:"segments"`
	BytesRead  int64  `json:"bytes_read"`
	ReadTimeNS int64  `json:"read_time_ns"`
}

func formatMS(ub float64) string {
	return strconv.FormatFloat(ub, 'g', -1, 64)
}
