package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// metricDef names one metric. The list below is the vocabulary of the
// benchmark; BENCHMARK.json repeats it, and a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them in the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p95_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"cpu_ms_per_query", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"index_bytes_per_token", "B/token", "lower"},
}

// perLayer are the metrics of single layers, named module.metric. Every
// workload reports every one of them in the traced run.
var perLayer = []metricDef{
	{"hash.sketch_ns_per_token", "ns", "lower"},
	{"window.generate_ns_per_token", "ns", "lower"},
	{"window.windows_per_token", "count", "lower"},
	{"index.build_tokens_per_s", "1/s", "higher"},
	{"index.build_gen_share", "ratio", "lower"},
	{"index.open_ms", "ms", "lower"},
	{"index.append_ms", "ms", "lower"},
	{"index.compact_ms", "ms", "lower"},
	{"index.compact_bytes_rewritten", "B", "lower"},
	{"index.write_amp", "ratio", "lower"},
	{"index.bytes_per_posting", "B", "lower"},
	{"index.postings_per_token", "count", "lower"},
	{"index.readlist_ns_per_posting", "ns", "lower"},
	{"index.read_bytes_per_query", "B", "lower"},
	{"search.collisioncount_ns_per_posting", "ns", "lower"},
	{"search.intervalscan_ns_per_interval", "ns", "lower"},
	{"search.stage_sketch_us", "us", "lower"},
	{"search.stage_plan_us", "us", "lower"},
	{"search.stage_gather_us", "us", "lower"},
	{"search.stage_count_us", "us", "lower"},
	{"search.stage_merge_us", "us", "lower"},
	{"search.stage_verify_us", "us", "lower"},
	{"search.unaccounted_us", "us", "lower"},
	{"search.short_lists", "count", "lower"},
	{"search.long_lists", "count", "higher"},
	{"search.candidates", "count", "lower"},
	{"search.probed", "count", "lower"},
	{"search.rects", "count", "lower"},
	{"search.matches", "count", "higher"},
	{"search.candidate_yield", "ratio", "higher"},
	{"search.alloc_kb_per_query", "kB", "lower"},
	{"search.allocs_per_query", "count", "lower"},
	{"server.edge_self_us", "us", "lower"},
	{"server.shard_self_us", "us", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.cache_hit_p50_us", "us", "lower"},
	{"server.response_bytes_per_query", "B", "lower"},
	{"server.rejected_429", "count", "lower"},
	{"server.ingest_p50_ms", "ms", "lower"},
	{"server.ingest_swap_ms", "ms", "lower"},
	{"server.compactions", "count", "lower"},
	{"server.compact_ms", "ms", "lower"},
	{"server.ingest_quiet_ms", "ms", "lower"},
	{"shard.coordinator_self_us", "us", "lower"},
	{"shard.leg_p50_us", "us", "lower"},
	{"shard.leg_max_over_min", "ratio", "lower"},
	{"shard.wire_us", "us", "lower"},
	{"shard.partial_results", "count", "lower"},
	{"bench.client_overhead_us", "us", "lower"},
	{"bench.query_p99_ms", "ms", "lower"},
	{"bench.ingest_p90_ms", "ms", "lower"},
	{"bench.round_spread_pct", "%", "lower"},
	{"bench.gen_lag_p95_ms", "ms", "lower"},
	{"bench.samples", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unattributed_pct", "%", "lower"},
}

// result is what one run reports.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	info      []string // per-round detail, printed before the metrics
	notes     []string // why ops failed
	invalid   []string // validity guards that tripped
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.invalid) == 0 }

// queryMetrics sets the query metrics from the measured rounds. The
// latencies are those of floors: the two percentiles are taken over the
// ops of the sequence, each at its fastest, and queries_per_s is what one
// client completes at those latencies. cpu_ms_per_query is that time per
// query times the cores the process kept busy while the rounds ran (CPU
// time over wall time, a ratio the machine's noise cancels out of,
// because a memory stall stretches both alike).
func (r *result) queryMetrics(rounds []round) {
	fl := floors(rounds)
	var sum float64
	for _, l := range fl {
		sum += l
	}
	perQuery := sum / float64(len(fl))
	var cpu, wall time.Duration
	for i, x := range rounds {
		cpu += x.cpu
		wall += x.wall
		r.attempted += x.attempted
		r.failed += x.failed
		r.info = append(r.info, fmt.Sprintf("round %d: %d ops in %.2f s, p50 %.4f ms, p95 %.4f ms, %.1f /s, cpu %.2f s",
			i, x.attempted, x.wall.Seconds(), percentile(x.lat, 50), percentile(x.lat, 95), x.qps(), x.cpu.Seconds()))
	}
	r.set("query_p50_ms", percentile(fl, 50))
	r.set("query_p95_ms", percentile(fl, 95))
	r.set("queries_per_s", 1000/perQuery)
	r.set("cpu_ms_per_query", perQuery*cpu.Seconds()/wall.Seconds())
}

// countIngests counts the Server.Ingest calls of a run as ops.
func (r *result) countIngests(ing ingestRun) {
	r.attempted += len(ing.lat)
	r.failed += ing.failed
	if ing.failed > 0 {
		r.note("%d of %d ingests failed", ing.failed, len(ing.lat))
	}
}

// guard marks the run invalid when the measurement itself cannot be
// trusted: the server refused queries, too few rounds fit into the run
// for their fastest latencies to mean much, or the cached share of a
// serve-sharded round left the mix the workload is defined by.
func (r *result) guard(workload string, sc scale, rounds []round) {
	if len(rounds) < sc.minRounds {
		r.invalid = append(r.invalid, fmt.Sprintf("%d rounds < %d", len(rounds), sc.minRounds))
	}
	for i, x := range rounds {
		if x.rejected > 0 {
			r.invalid = append(r.invalid, fmt.Sprintf("round %d: %d queries refused with 429", i, x.rejected))
		}
		if share := float64(len(x.cachedLat)) / float64(max(x.attempted, 1)); workload == wlServeSharded && math.Abs(share-hotShare) > sc.mixTol {
			r.invalid = append(r.invalid, fmt.Sprintf("round %d: %.3f of the replies came from the result cache, want %.2f±%.2f", i, share, hotShare, sc.mixTol))
		}
	}
}

// maxGenLagMS is how late the open-loop ingest schedule of the traced
// run may fire, at its 95th percentile, before the run is invalid.
const maxGenLagMS = 50

// report prints every metric in defs by name with its unit, then the
// notes, and last the one JSON object the driver reads.
func (r *result) report(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value)}
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "attempted_ops %d\nfailed_ops %d\n", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintln(w, "failed:", n)
	}
	for _, n := range r.invalid {
		fmt.Fprintln(w, "invalid:", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
