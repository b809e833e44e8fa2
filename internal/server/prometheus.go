package server

// Prometheus text exposition (version 0.0.4) for /metrics. Written by
// hand against the format spec — the repo is dependency-free — and
// validated in tests by a line-format checker. Histograms convert the
// internal per-bucket counts to the cumulative `le` form Prometheus
// requires; durations are exposed in seconds per convention.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ndss/internal/obs"
	"ndss/internal/search"
	"ndss/internal/shard"
)

// promContentType is the exposition content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates exposition lines with #-comment headers.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// sample writes one sample line; labels is a preformatted `k="v",...`
// string or empty.
func (p *promWriter) sample(name, labels string, value float64) {
	if labels != "" {
		p.printf("%s{%s} %s\n", name, labels, formatPromValue(value))
	} else {
		p.printf("%s %s\n", name, formatPromValue(value))
	}
}

// histogramSamples writes the cumulative bucket series plus _sum and
// _count for one histogram. extraLabels tags every line (may be empty).
func (p *promWriter) histogramSamples(name, extraLabels string, buckets [len(obs.LatencyBucketsMS) + 1]int64, count, sumNS int64) {
	cum := int64(0)
	for i, ub := range obs.LatencyBucketsMS {
		cum += buckets[i]
		p.sample(name+"_bucket", joinLabels(extraLabels, `le="`+formatPromValue(ub/1000)+`"`), float64(cum))
	}
	cum += buckets[len(obs.LatencyBucketsMS)]
	p.sample(name+"_bucket", joinLabels(extraLabels, `le="+Inf"`), float64(cum))
	p.sample(name+"_sum", extraLabels, float64(sumNS)/float64(time.Second))
	p.sample(name+"_count", extraLabels, float64(count))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// writePrometheus renders the full metric catalog (see README's
// observability section) in exposition format.
func (m *metrics) writePrometheus(w io.Writer, cacheLen, cacheCap int, ix indexSnapshot, slowlogLen, traceLen int, sm *shard.Metrics) error {
	p := &promWriter{w: w}

	p.header("ndss_uptime_seconds", "Seconds since the server started.", "gauge")
	p.sample("ndss_uptime_seconds", "", time.Since(m.start).Seconds())
	p.header("ndss_in_flight_requests", "Query requests currently executing.", "gauge")
	p.sample("ndss_in_flight_requests", "", float64(m.inFlight.Load()))

	p.header("ndss_requests_total", "Admitted query requests by endpoint and outcome.", "counter")
	var cacheHits int64 // the outCached column
	for e := endpoint(0); e < numEndpoints; e++ {
		for o := outcome(0); o < numOutcomes; o++ {
			_, c, _ := m.latency[e][o].Load()
			if o == outCached {
				cacheHits += c
			}
			p.sample("ndss_requests_total",
				fmt.Sprintf(`endpoint=%q,outcome=%q`, e.String(), o.String()), float64(c))
		}
	}
	p.header("ndss_requests_rejected_total", "Requests rejected before admission (429 saturated).", "counter")
	p.sample("ndss_requests_rejected_total", "", float64(m.rejected.Load()))
	p.header("ndss_requests_refused_total", "Requests refused while shutting down (503).", "counter")
	p.sample("ndss_requests_refused_total", "", float64(m.refused.Load()))
	p.header("ndss_requests_too_large_total", "Requests rejected for an over-limit body (413).", "counter")
	p.sample("ndss_requests_too_large_total", "", float64(m.tooLarge.Load()))

	p.header("ndss_request_duration_seconds", "Admitted request latency by endpoint and outcome.", "histogram")
	for e := endpoint(0); e < numEndpoints; e++ {
		for o := outcome(0); o < numOutcomes; o++ {
			b, c, s := m.latency[e][o].Load()
			if c == 0 {
				continue // keep the exposition compact: only cells that fired
			}
			p.histogramSamples("ndss_request_duration_seconds",
				fmt.Sprintf(`endpoint=%q,outcome=%q`, e.String(), o.String()), b, c, s)
		}
	}

	p.header("ndss_stage_duration_seconds", "Per-query pipeline stage latency (executed queries).", "histogram")
	for i, name := range search.StageNames {
		b, c, s := m.stages[i].Load()
		p.histogramSamples("ndss_stage_duration_seconds", fmt.Sprintf(`stage=%q`, name), b, c, s)
	}

	p.header("ndss_cache_hits_total", "Result cache hits.", "counter")
	p.sample("ndss_cache_hits_total", "", float64(cacheHits))
	p.header("ndss_cache_misses_total", "Result cache misses.", "counter")
	p.sample("ndss_cache_misses_total", "", float64(m.cacheMisses.Load()))
	p.header("ndss_cache_entries", "Result cache current entries.", "gauge")
	p.sample("ndss_cache_entries", "", float64(cacheLen))
	p.header("ndss_cache_capacity", "Result cache capacity.", "gauge")
	p.sample("ndss_cache_capacity", "", float64(cacheCap))

	p.header("ndss_reloads_total", "Backend hot reloads by result.", "counter")
	p.sample("ndss_reloads_total", `result="ok"`, float64(m.reloads.Load()))
	p.sample("ndss_reloads_total", `result="error"`, float64(m.reloadFailures.Load()))

	p.header("ndss_ingests_total", "Successful ingest mutations (segment appends).", "counter")
	p.sample("ndss_ingests_total", "", float64(m.ingests.Load()))
	p.header("ndss_compactions_total", "Successful segment compactions (manual or automatic).", "counter")
	p.sample("ndss_compactions_total", "", float64(m.compactions.Load()))

	p.header("ndss_query_matches_total", "Matches returned by executed queries.", "counter")
	p.sample("ndss_query_matches_total", "", float64(m.matches.Load()))
	p.header("ndss_query_io_bytes_total", "Index bytes read by executed queries.", "counter")
	p.sample("ndss_query_io_bytes_total", "", float64(m.ioBytes.Load()))
	p.header("ndss_query_io_seconds_total", "Time executed queries spent in index reads.", "counter")
	p.sample("ndss_query_io_seconds_total", "", float64(m.ioTimeNS.Load())/float64(time.Second))
	p.header("ndss_query_cpu_seconds_total", "CPU-side time of executed queries (total minus I/O).", "counter")
	p.sample("ndss_query_cpu_seconds_total", "", float64(m.cpuTimeNS.Load())/float64(time.Second))

	p.header("ndss_index_info", "Active index build (constant 1, labeled).", "gauge")
	p.sample("ndss_index_info", fmt.Sprintf(`build_id="%s",k="%d",t="%d"`,
		escapeLabelValue(ix.BuildID), ix.K, ix.T), 1)
	p.header("ndss_index_texts", "Texts in the active index.", "gauge")
	p.sample("ndss_index_texts", "", float64(ix.NumTexts))
	p.header("ndss_segments_total", "Segments in the active index's manifest.", "gauge")
	p.sample("ndss_segments_total", "", float64(ix.Segments))
	p.header("ndss_index_bytes_read_total", "Cumulative index bytes read since open.", "counter")
	p.sample("ndss_index_bytes_read_total", "", float64(ix.BytesRead))
	p.header("ndss_index_read_seconds_total", "Cumulative index read time since open.", "counter")
	p.sample("ndss_index_read_seconds_total", "", float64(ix.ReadTimeNS)/float64(time.Second))

	p.header("ndss_slowlog_entries", "Traces held by the slow-query flight recorder.", "gauge")
	p.sample("ndss_slowlog_entries", "", float64(slowlogLen))

	// Distributed-tracing families. Always present (zero-valued when
	// tracing never fired) so dashboards and the exposition checker see
	// every family in every scrape.
	p.header("ndss_trace_sampled_requests_total", "Executed queries whose trace was head-sampled.", "counter")
	p.sample("ndss_trace_sampled_requests_total", "", float64(m.traceSampled.Load()))
	p.header("ndss_trace_retained_total", "Traces retained in the trace store by retention reason (tail-based: decided at completion).", "counter")
	for i, reason := range traceReasons {
		p.sample("ndss_trace_retained_total",
			fmt.Sprintf(`reason=%q`, reason), float64(m.traceRetained[i].Load()))
	}
	p.header("ndss_trace_store_entries", "Traces currently held by the trace store.", "gauge")
	p.sample("ndss_trace_store_entries", "", float64(traceLen))
	p.header("ndss_trace_evictions_total", "Retained traces evicted by ring capacity.", "counter")
	p.sample("ndss_trace_evictions_total", "", float64(m.traceEvicted.Load()))

	if sm != nil {
		// Scatter–gather fan-out accounting (sharded backends only).
		// Shard label values come from the serving topology (index dirs
		// or URLs fixed at startup), never from request data.
		p.header("ndss_shard_requests_total", "Fan-out query legs per shard.", "counter")
		for _, sh := range sm.Shards {
			p.sample("ndss_shard_requests_total",
				fmt.Sprintf(`shard=%q`, escapeLabelValue(sh.Shard)), float64(sh.Requests))
		}
		p.header("ndss_shard_errors_total", "Fan-out query legs that failed or missed their budget, per shard.", "counter")
		for _, sh := range sm.Shards {
			p.sample("ndss_shard_errors_total",
				fmt.Sprintf(`shard=%q`, escapeLabelValue(sh.Shard)), float64(sh.Errors))
		}
		p.header("ndss_shard_partial_results_total", "Queries answered with at least one shard missing.", "counter")
		p.sample("ndss_shard_partial_results_total", "", float64(sm.PartialResults))
		p.header("ndss_shard_request_duration_seconds", "Fan-out leg latency per shard.", "histogram")
		for _, sh := range sm.Shards {
			if sh.LatencyCount == 0 {
				continue // keep the exposition compact: only shards that served
			}
			p.histogramSamples("ndss_shard_request_duration_seconds",
				fmt.Sprintf(`shard=%q`, escapeLabelValue(sh.Shard)),
				sh.LatencyBuckets, sh.LatencyCount, sh.LatencySumNS)
		}

		// Replica-level resilience accounting (shards served by replica
		// sets only). Replica label values are the configured replica
		// URLs/directories, never request-derived.
		writeReplicaFamily := func(name, help, typ string, value func(r shard.ReplicaMetrics) float64) {
			wrote := false
			for _, sh := range sm.Shards {
				if sh.ReplicaSet == nil {
					continue
				}
				if !wrote {
					p.header(name, help, typ)
					wrote = true
				}
				for _, r := range sh.ReplicaSet.Replicas {
					p.sample(name, fmt.Sprintf(`shard=%q,replica=%q`,
						escapeLabelValue(sh.Shard), escapeLabelValue(r.Replica)), value(r))
				}
			}
		}
		writeReplicaFamily("ndss_shard_replica_requests_total",
			"Attempts launched at each replica (primaries, retries, hedges).", "counter",
			func(r shard.ReplicaMetrics) float64 { return float64(r.Requests) })
		writeReplicaFamily("ndss_shard_replica_errors_total",
			"Attempts that failed at each replica (cancellations excluded).", "counter",
			func(r shard.ReplicaMetrics) float64 { return float64(r.Errors) })
		writeReplicaFamily("ndss_shard_retries_total",
			"Retry attempts routed to each replica after a transient failure elsewhere.", "counter",
			func(r shard.ReplicaMetrics) float64 { return float64(r.Retries) })
		writeReplicaFamily("ndss_shard_hedges_total",
			"Hedged (speculative) attempts routed to each replica.", "counter",
			func(r shard.ReplicaMetrics) float64 { return float64(r.Hedges) })
		writeReplicaFamily("ndss_shard_breaker_state",
			"Replica circuit-breaker state: 0 closed, 1 half-open, 2 open.", "gauge",
			func(r shard.ReplicaMetrics) float64 { return float64(r.Breaker) })
		writeReplicaFamily("ndss_shard_replica_quarantined",
			"1 while the replica is quarantined for a diverging build id.", "gauge",
			func(r shard.ReplicaMetrics) float64 {
				if r.Quarantined {
					return 1
				}
				return 0
			})
		wroteSet := false
		for _, sh := range sm.Shards {
			if sh.ReplicaSet == nil {
				continue
			}
			if !wroteSet {
				p.header("ndss_shard_hedge_wins_total", "Legs won by the hedged attempt.", "counter")
				wroteSet = true
			}
			p.sample("ndss_shard_hedge_wins_total",
				fmt.Sprintf(`shard=%q`, escapeLabelValue(sh.Shard)), float64(sh.ReplicaSet.HedgeWins))
		}
		wroteSet = false
		for _, sh := range sm.Shards {
			if sh.ReplicaSet == nil {
				continue
			}
			if !wroteSet {
				p.header("ndss_shard_retry_budget_denied_total", "Retries/hedges suppressed by an exhausted retry budget.", "counter")
				wroteSet = true
			}
			p.sample("ndss_shard_retry_budget_denied_total",
				fmt.Sprintf(`shard=%q`, escapeLabelValue(sh.Shard)), float64(sh.ReplicaSet.BudgetDenied))
		}
	}

	rt := sampleRuntime()
	p.header("go_goroutines", "Number of goroutines.", "gauge")
	p.sample("go_goroutines", "", float64(rt.Goroutines))
	p.header("go_memstats_heap_alloc_bytes", "Heap bytes allocated and in use.", "gauge")
	p.sample("go_memstats_heap_alloc_bytes", "", float64(rt.HeapAllocBytes))
	p.header("go_memstats_heap_sys_bytes", "Heap bytes obtained from the OS.", "gauge")
	p.sample("go_memstats_heap_sys_bytes", "", float64(rt.HeapSysBytes))
	p.header("go_memstats_heap_objects", "Allocated heap objects.", "gauge")
	p.sample("go_memstats_heap_objects", "", float64(rt.HeapObjects))
	p.header("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	p.sample("go_gc_pause_seconds_total", "", float64(rt.GCPauseTotalNS)/float64(time.Second))
	p.header("go_gc_cycles_total", "Completed GC cycles.", "counter")
	p.sample("go_gc_cycles_total", "", float64(rt.NumGC))

	return p.err
}
