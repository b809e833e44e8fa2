package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ndss/internal/search"
)

// The traced run (--trace 1) reports the per-layer metrics. It is sized
// by op counts, not by --seconds, so that its counts repeat exactly for
// one seed. It makes these passes, each over inputs built from the seed:
//
//  1. the workload's own topology with no decorator: three rounds;
//  2. the same topology with the decorators of decorators.go: one round;
//  3. the sharded topology, traced (the serve-sharded run uses pass 2;
//     the other runs build one at probe scale);
//  4. the churn topology, traced (the ingest-churn run uses pass 2; the
//     other runs build one at probe scale), followed by quiet ingests;
//  5. the stand-alone layer replays of replay.go.
//
// So every layer is measured in every traced run, and the numbers of the
// layers a workload loads come from that workload's own ops.

const traceRounds = 3 // untraced rounds of pass 1

// pass is one topology set up, driven and closed again.
type pass struct {
	p      *prepared
	rounds []round
	ing    ingestRun // the scheduled ingests of a churn topology
	quiet  ingestRun // the quiet ingests after them (traced only)
	spans  []span
	calls  []engineCall
}

// runPass sets up the topology of a workload and drives it: a churn
// topology for as long as its ingest schedule lasts, any other for the
// given number of rounds of ops ops each. texts overrides the corpus
// size when positive.
func runPass(workload string, sc scale, seed int64, dir string, texts, rounds, ops, ingests int, rec *recorder) (*pass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	quiet := 0
	if workload == wlIngestChurn && rec != nil {
		quiet = sc.quietIngs
	}
	from := 0
	if rec != nil {
		from = rec.len()
	}
	p, err := setUp(workload, sc, seed, dir, ingests+quiet, texts, true, rec)
	if err != nil {
		return nil, err
	}
	defer func() { _ = p.st.close() }() // error paths; the success path closes below
	ps := &pass{p: p}
	if workload == wlIngestChurn {
		var r round
		r, ps.ing = runChurn(p, p.batches[:ingests], sc.ingestEvery, time.Duration(ingests)*sc.ingestEvery, rec)
		ps.rounds = []round{r}
		if _, err := p.st.ingest.Compact(); err != nil {
			return nil, err
		}
		ps.quiet = runQuiet(p.st.ingest, p.batches[ingests:], rec)
	} else {
		for i := 0; i < rounds; i++ {
			ps.rounds = append(ps.rounds, runRound(p.st.tgt, p.ops, p.chk, ops, 0, rec))
		}
	}
	if rec != nil {
		ps.spans = rec.snapshot()[from:]
	}
	for _, l := range p.st.logs {
		ps.calls = append(ps.calls, l.snapshot()...)
	}
	return ps, p.st.close()
}

// runTraced is the --trace 1 run of one workload.
func runTraced(workload string, sc scale, seed int64, dir, spansPath string) (*result, error) {
	res := newResult()
	rec := newRecorder()
	// The read-only passes schedule no ingest; their batches feed the
	// Append replay.
	batches := lifecycleReps
	if workload == wlIngestChurn {
		batches = sc.traceIngs
	}
	plain, err := runPass(workload, sc, seed, filepath.Join(dir, "plain"), 0, traceRounds, sc.traceOps, batches, nil)
	if err != nil {
		return nil, err
	}
	traced, err := runPass(workload, sc, seed, filepath.Join(dir, "traced"), 0, 1, sc.traceOps, batches, rec)
	if err != nil {
		return nil, err
	}
	sharded, churn := traced, traced
	if workload != wlServeSharded {
		if sharded, err = runPass(wlServeSharded, sc, seed, filepath.Join(dir, "sharded"), sc.probeTexts, 1, sc.probeOps, 0, rec); err != nil {
			return nil, err
		}
	}
	if workload != wlIngestChurn {
		if churn, err = runPass(wlIngestChurn, sc, seed, filepath.Join(dir, "churn"), sc.probeTexts, 0, 0, sc.probeIngs, rec); err != nil {
			return nil, err
		}
	}
	passes := []*pass{plain, traced}
	if sharded != traced {
		passes = append(passes, sharded)
	}
	if churn != traced {
		passes = append(passes, churn)
	}
	for _, ps := range passes {
		for _, r := range ps.rounds {
			res.attempted += r.attempted
			res.failed += r.failed
		}
		for _, ing := range []ingestRun{ps.ing, ps.quiet} {
			res.attempted += len(ing.lat)
			res.failed += ing.failed
		}
	}

	res.benchMetrics(plain, traced)
	res.searchMetrics(plain, traced)
	res.shardedMetrics(sharded)
	res.churnMetrics(churn)
	if err := res.replayMetrics(sc, plain); err != nil {
		return nil, err
	}
	return res, rec.writeFile(spansPath)
}

// benchMetrics describes the measurement itself: how much the client
// adds, how steady the rounds were, and what tracing costs.
func (r *result) benchMetrics(plain, traced *pass) {
	var all []float64
	var qps []float64
	for _, x := range plain.rounds {
		all = append(all, x.lat...)
		qps = append(qps, x.qps())
	}
	if len(plain.rounds) == 1 {
		qps = sliceQPS(plain.rounds[0], traceRounds)
	}
	r.set("bench.samples", float64(len(all)))
	r.set("bench.query_p99_ms", percentile(all, 99))
	sort.Float64s(qps)
	r.set("bench.round_spread_pct", 100*(qps[len(qps)-1]-qps[0])/median(qps))
	r.set("trace.overhead_pct", 100*(median(qps)-traced.rounds[0].qps())/median(qps))

	// Time the client saw that no span of the program covers: the
	// client's own HTTP work, the loopback, and scheduling.
	var client, outside time.Duration
	for _, rq := range groupRequests(traced.spans) {
		c, ok := rq.byName[spanClient]
		if !ok {
			continue
		}
		self, _ := rq.self(spanClient)
		client += c.dur()
		outside += self
	}
	n := float64(traced.rounds[0].attempted)
	r.set("bench.client_overhead_us", us(outside)/n)
	r.set("trace.unattributed_pct", 100*float64(outside)/float64(client))
}

// sliceQPS splits one round into n slices of equal duration and returns
// the throughput of each. In a closed loop with one client the latencies
// add up to the elapsed time.
func sliceQPS(x round, n int) []float64 {
	var total float64
	for _, l := range x.lat {
		total += l
	}
	out := make([]float64, n)
	var elapsed float64
	for _, l := range x.lat {
		i := int(elapsed / total * float64(n))
		if i >= n {
			i = n - 1
		}
		out[i]++
		elapsed += l
	}
	for i := range out {
		out[i] /= total / float64(n) / 1000
	}
	return out
}

// searchMetrics reports the program's own account of its queries: the
// Stats every engine call of the traced pass returned. The counts are
// exact and repeat for one seed. Allocation and index reads per query
// come from the untraced rounds.
func (r *result) searchMetrics(plain, traced *pass) {
	var st search.StageTimes
	var total time.Duration
	var short, long, cand, probed, rects, matches, texts float64
	for _, c := range traced.calls {
		st = st.Add(c.stats.StageTimes)
		total += c.stats.Total
		short += float64(c.stats.ShortLists)
		long += float64(c.stats.LongLists)
		cand += float64(c.stats.Candidates)
		probed += float64(c.stats.Probed)
		rects += float64(c.stats.Rects)
		matches += float64(c.stats.Matches)
		texts += float64(c.texts)
	}
	n := float64(len(traced.calls))
	d := st.Durations()
	var staged time.Duration
	for i, name := range search.StageNames {
		r.set("search.stage_"+name+"_us", us(d[i])/n)
		staged += d[i]
	}
	r.set("search.unaccounted_us", us(total-staged)/n)
	r.set("search.short_lists", short/n)
	r.set("search.long_lists", long/n)
	r.set("search.candidates", cand/n)
	r.set("search.probed", probed/n)
	r.set("search.rects", rects/n)
	r.set("search.matches", matches/n)
	yield := 0.0
	if cand > 0 {
		yield = texts / cand
	}
	r.set("search.candidate_yield", yield)

	var ops, mallocs, bytes, io float64
	for _, x := range plain.rounds {
		ops += float64(x.correct())
		mallocs += float64(x.mallocs)
		bytes += float64(x.allocBytes)
		io += float64(x.ioBytes)
	}
	r.set("search.allocs_per_query", mallocs/ops)
	r.set("search.alloc_kb_per_query", bytes/ops/1000)
	r.set("index.read_bytes_per_query", io/ops)
}

// shardedMetrics reports the self times of the serving tier from the
// spans of a sharded topology.
func (r *result) shardedMetrics(ps *pass) {
	var edgeSelf, coordSelf, shardSelf, wire, legs []float64
	var ratio []float64
	for _, rq := range groupRequests(ps.spans) {
		if _, ok := rq.byName[spanEdgeBackend]; !ok {
			continue // answered from the result cache, or not a query
		}
		if d, ok := rq.self(spanEdgeHTTP); ok {
			edgeSelf = append(edgeSelf, us(d))
		}
		if d, ok := rq.self(spanEdgeBackend); ok {
			coordSelf = append(coordSelf, us(d))
		}
		lo, hi := 0.0, 0.0
		for i := 0; i < numShards; i++ {
			leg, ok := rq.byName[numbered(spanLeg, i)]
			if !ok {
				continue
			}
			l := us(leg.dur())
			legs = append(legs, l)
			if lo == 0 || l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
			if d, ok := rq.self(numbered(spanLeg, i)); ok {
				wire = append(wire, us(d))
			}
			if d, ok := rq.self(numbered(spanShardHTTP, i)); ok {
				shardSelf = append(shardSelf, us(d))
			}
		}
		if lo > 0 {
			ratio = append(ratio, hi/lo)
		}
	}
	r.set("server.edge_self_us", mean(edgeSelf))
	r.set("server.shard_self_us", mean(shardSelf))
	r.set("shard.coordinator_self_us", mean(coordSelf))
	r.set("shard.leg_p50_us", percentile(legs, 50))
	r.set("shard.leg_max_over_min", mean(ratio))
	r.set("shard.wire_us", mean(wire))

	x := ps.rounds[0]
	r.set("server.cache_hit_ratio", float64(len(x.cachedLat))/float64(x.attempted))
	r.set("server.cache_hit_p50_us", percentile(x.cachedLat, 50))
	r.set("server.response_bytes_per_query", float64(x.respBytes)/float64(x.correct()))
	r.set("server.rejected_429", float64(x.rejected))
	r.set("shard.partial_results", float64(x.partial))
}

// churnMetrics reports the mutation path from a churn topology: the
// scheduled ingests beside queries, then the quiet ones.
func (r *result) churnMetrics(ps *pass) {
	var ingests, ingesters, compactors []span
	for _, s := range ps.spans {
		switch s.Name {
		case spanIngest:
			ingests = append(ingests, s)
		case spanIngester:
			ingesters = append(ingesters, s)
		case spanCompactor:
			compactors = append(compactors, s)
		}
	}
	// Server.Ingest holds the mutation lock, so exactly one Ingester
	// call lies inside each Server.Ingest span; what follows it is the
	// reload, the swap and the drain.
	var swap []float64
	for _, in := range ingests {
		for _, ig := range ingesters {
			if ig.Start >= in.Start && ig.End <= in.End {
				swap = append(swap, ms(time.Duration(in.End-ig.End)))
			}
		}
	}
	var compact []float64
	for _, c := range compactors {
		compact = append(compact, ms(c.dur()))
	}
	r.set("server.ingest_p50_ms", percentile(ps.ing.lat, 50))
	r.set("server.ingest_swap_ms", mean(swap))
	r.set("server.compactions", float64(len(compactors)))
	r.set("server.compact_ms", mean(compact))
	r.set("server.ingest_quiet_ms", percentile(ps.quiet.lat, 50))
	r.set("bench.ingest_p90_ms", percentile(ps.ing.lat, 90))
	lag := percentile(ps.ing.lag, 95)
	r.set("bench.gen_lag_p95_ms", lag)
	if lag > maxGenLagMS {
		r.invalid = append(r.invalid, fmt.Sprintf("ingest schedule fired late: p95 lag %.1f ms > %d ms", lag, maxGenLagMS))
	}
	mt := ps.p.st.mt
	r.set("index.write_amp", float64(mt.written.Load())/float64(mt.user.Load()))
}

// replayMetrics runs the stand-alone layer replays over the inputs of
// the untraced pass, whose index directory is idle by now.
func (r *result) replayMetrics(sc scale, ps *pass) error {
	p := ps.p
	b := p.st.builds[0]
	r.set("index.build_tokens_per_s", float64(b.tokens)/b.wall.Seconds())
	r.set("index.build_gen_share", b.stats.GenTime.Seconds()/b.wall.Seconds())

	sz, err := measureIndex(p.st.dirs)
	if err != nil {
		return err
	}
	r.set("index.bytes_per_posting", float64(sz.bytes)/float64(sz.postings))
	r.set("index.postings_per_token", float64(sz.postings)/float64(sz.tokens))

	r.set("hash.sketch_ns_per_token", replaySketch(p))
	ns, perToken := replayWindows(sc, p)
	r.set("window.generate_ns_per_token", ns)
	r.set("window.windows_per_token", perToken)

	dir := p.st.dirs[0]
	k, err := replayKernels(dir, p)
	if err != nil {
		return err
	}
	r.set("index.readlist_ns_per_posting", k.readList)
	r.set("search.collisioncount_ns_per_posting", k.collisionCount)
	r.set("search.intervalscan_ns_per_interval", k.intervalScan)

	lc, err := replayLifecycle(dir, p.batches)
	if err != nil {
		return err
	}
	r.set("index.open_ms", lc.openMS)
	r.set("index.append_ms", lc.appendMS)
	r.set("index.compact_ms", lc.compactMS)
	r.set("index.compact_bytes_rewritten", lc.compactBytes)
	return nil
}
