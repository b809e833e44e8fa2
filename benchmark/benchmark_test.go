package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"ndss/internal/hash"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{50, 10, 40, 20, 30}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// A disturbed round must not move the result: every position keeps the
// fastest of its repeats, wherever in the rounds that was.
func TestFloorsKeepTheFastestRepeatOfEveryOp(t *testing.T) {
	rounds := []round{
		{lat: []float64{1, 5, 3}, wall: 9 * time.Millisecond, cpu: 12 * time.Millisecond},
		{lat: []float64{9, 9, 9}, wall: 27 * time.Millisecond, cpu: 39 * time.Millisecond}, // a disturbed round
		{lat: []float64{2, 4, 2.5}, wall: 9 * time.Millisecond, cpu: 16500 * time.Microsecond},
	}
	if got := floors(rounds); !reflect.DeepEqual(got, []float64{1, 4, 2.5}) {
		t.Errorf("floors = %v, want [1 4 2.5]", got)
	}
	if got := floors(rounds[:1]); !reflect.DeepEqual(got, []float64{1, 5, 3}) {
		t.Errorf("floors of one round = %v, want the round", got)
	}
	if got := floors(nil); got != nil {
		t.Errorf("floors of nothing = %v", got)
	}
	res := newResult()
	res.queryMetrics(rounds)
	if p50, p95 := res.metrics["query_p50_ms"], res.metrics["query_p95_ms"]; p50 != 2.5 || p95 != 4 {
		t.Errorf("p50, p95 over the floors = %v, %v, want 2.5, 4", p50, p95)
	}
	if got, want := res.metrics["queries_per_s"], 3000/7.5; got != want {
		t.Errorf("queries_per_s = %v, want %v: one client, so ops over the sum of their latencies", got, want)
	}
	// 67.5 ms of CPU in 45 ms of rounds is 1.5 cores busy, for 2.5 ms a query.
	if got, want := res.metrics["cpu_ms_per_query"], 3.75; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu_ms_per_query = %v, want %v", got, want)
	}
}

// A serve-sharded round whose cached share left the mix, a refused query
// and a run of too few rounds each make the run invalid.
func TestGuards(t *testing.T) {
	mix := func(cached, total int) round {
		return round{attempted: total, lat: make([]float64, total), cachedLat: make([]float64, cached)}
	}
	sc := scale{minRounds: 2, mixTol: 0.02}
	for name, c := range map[string]struct {
		workload string
		rounds   []round
		valid    bool
	}{
		"mix as defined":        {wlServeSharded, []round{mix(20, 100), mix(21, 100)}, true},
		"all from the cache":    {wlServeSharded, []round{mix(20, 100), mix(100, 100)}, false},
		"nothing from it":       {wlServeSharded, []round{mix(20, 100), mix(0, 100)}, false},
		"no cache, other loads": {wlQueryHit, []round{mix(0, 100), mix(0, 100)}, true},
		"too few rounds":        {wlQueryHit, []round{mix(0, 100)}, false},
		"a refused query":       {wlQueryHit, []round{mix(0, 100), {attempted: 100, rejected: 1}}, false},
	} {
		res := newResult()
		res.guard(c.workload, sc, c.rounds)
		if res.correct() != c.valid {
			t.Errorf("%s: valid = %v, want %v (%v)", name, res.correct(), c.valid, res.invalid)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v, want 1.5, 4.5", q1, q3)
	}
}

func TestSelfTimeCountsParallelChildrenOnce(t *testing.T) {
	parent := span{Name: "edge.backend", Start: 0, End: 100}
	children := []span{
		{Name: "leg0", Start: 10, End: 60},
		{Name: "leg1", Start: 20, End: 80},  // overlaps leg0
		{Name: "late", Start: 90, End: 120}, // runs past the parent
	}
	// Covered: [10,80] and [90,100] = 80, so 20 is the parent's own.
	if got := selfTime(parent, children); got != 20 {
		t.Errorf("self time = %v, want 20", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %v, want 100", got)
	}

	reqs := groupRequests([]span{
		{Name: spanClient, Req: "q1", Start: 0, End: 110},
		{Name: "edge.backend", Req: "q1", Parent: spanClient, Start: 0, End: 100},
		{Name: "leg0", Req: "q1", Parent: "edge.backend", Start: 10, End: 60},
		{Name: "leg1", Req: "q1", Parent: "edge.backend", Start: 20, End: 80},
		{Name: spanClient, Req: "q2", Start: 200, End: 210},
	})
	if len(reqs) != 2 {
		t.Fatalf("grouped into %d requests, want 2", len(reqs))
	}
	if d, ok := reqs["q1"].self("edge.backend"); !ok || d != 30 {
		t.Errorf("q1 edge.backend self = %v, %v, want 30", d, ok)
	}
	if d, ok := reqs["q1"].self(spanClient); !ok || d != 10 {
		t.Errorf("q1 client self = %v, %v, want 10", d, ok)
	}
	if _, ok := reqs["q2"].self("edge.backend"); ok {
		t.Errorf("q2 has no edge.backend span")
	}
}

// A stalled call must show in the latency of the calls queued behind it,
// because latency counts from the instant a call was due, not from when
// it started.
func TestScheduleMeasuresFromDueTime(t *testing.T) {
	const every = 20 * time.Millisecond
	const stall = 70 * time.Millisecond
	started := make([]time.Time, 4)
	run := runSchedule(4, every, func(i int) error {
		started[i] = time.Now()
		if i == 0 {
			time.Sleep(stall)
		}
		if i == 3 {
			return errors.New("refused")
		}
		return nil
	})
	if len(run.lat) != 4 || len(run.lag) != 4 {
		t.Fatalf("got %d latencies and %d lags, want 4 each", len(run.lat), len(run.lag))
	}
	if run.failed != 1 {
		t.Errorf("failed = %d, want 1", run.failed)
	}
	// Call 1 was due at 20 ms, could not start before 70 ms, and then
	// took no time: its latency is the wait.
	if want := ms(stall - every); run.lat[1] < want {
		t.Errorf("latency of the call behind the stall = %.1f ms, want at least %.1f ms", run.lat[1], want)
	}
	if wait := started[1].Sub(started[0]); wait < stall {
		t.Errorf("call 1 started %v after call 0; the worker must make the calls one at a time", wait)
	}
	// The dispatcher does not wait for the worker: call 1 fired on time
	// although the worker was busy.
	if run.lag[1] > ms(stall-every) {
		t.Errorf("dispatcher lag of call 1 = %.1f ms: it waited for the stalled call", run.lag[1])
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	gen := func(seed int64) (texts [][]uint32, ops []int, qs *queryset, batches [][][]uint32) {
		t.Helper()
		c, err := synthCorpus(shortScale.texts, seed)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < c.NumTexts(); id++ {
			texts = append(texts, c.Text(uint32(id)))
		}
		fam, err := hash.NewFamily(hashK, familySeed)
		if err != nil {
			t.Fatal(err)
		}
		qs, ops, _, err = makeOps(wlServeSharded, shortScale, seed, c, fam)
		if err != nil {
			t.Fatal(err)
		}
		if batches, err = ingestBatches(3, shortScale.batchTexts, seed); err != nil {
			t.Fatal(err)
		}
		return texts, ops, qs, batches
	}
	t1, o1, q1, b1 := gen(7)
	t2, o2, q2, b2 := gen(7)
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(b1, b2) {
		t.Errorf("two generations from seed 7 differ")
	}
	t3, o3, q3, b3 := gen(8)
	if reflect.DeepEqual(t1, t3) || reflect.DeepEqual(o1, o3) || reflect.DeepEqual(q1.tokens, q3.tokens) || reflect.DeepEqual(b1, b3) {
		t.Errorf("seeds 7 and 8 share a corpus, an op sequence, a query list or an ingest stream")
	}
	// Planted queries really are planted, unplanted ones are marked so.
	for i, hit := range q1.hit {
		if hit != (i%2 == 0) {
			t.Fatalf("query %d of the sharded mix: hit = %v", i, hit)
		}
	}
}

// The smoke test drives every workload, untraced and traced, at the tiny
// scale: every metric must come out, every op must be correct.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			res, err := runUntraced(w, shortScale, 3, 0.4, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, "untraced", res, endToEnd)
		})
	}
}

// Every traced run drives all three topologies (its own, and the other
// two at probe scale), so two workloads cover every traced code path.
func TestSmokeTraced(t *testing.T) {
	for _, w := range []string{wlQueryMiss, wlIngestChurn} {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err := runTraced(w, shortScale, 3, t.TempDir(), spans)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, "traced", res, perLayer)
			if w == wlQueryMiss && res.metrics["search.matches"] != 0 {
				t.Errorf("query-miss reports %v matches per query, want 0", res.metrics["search.matches"])
			}
			if res.metrics["shard.partial_results"] != 0 || res.metrics["server.rejected_429"] != 0 {
				t.Errorf("partial results or refused queries in a quiet run")
			}
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var got []span
			if err := json.Unmarshal(data, &got); err != nil || len(got) == 0 {
				t.Fatalf("span file: %d spans, err %v", len(got), err)
			}
		})
	}
}

func checkReport(t *testing.T, what string, res *result, defs []metricDef) {
	t.Helper()
	var out bytes.Buffer
	if err := res.report(&out, defs); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !res.correct() {
		t.Fatalf("%s: not correct:\n%s", what, out.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep runReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", what, err)
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != len(defs) {
		t.Errorf("%s: report %+v with %d metrics, want %d", what, rep, len(rep.Metrics), len(defs))
	}
}

// A wrong answer must count as a failed op and fail the run.
func TestCheckerRejectsWrongAnswers(t *testing.T) {
	qs := &queryset{}
	qs.add(make([]uint32, queryLen), true, planted{text: 5, start: 10})
	qs.add(make([]uint32, queryLen), false, planted{})
	chk := newChecker(qs)
	good := reply{status: 200, matches: []match{{TextID: 5, Start: 8, End: 80, Collisions: 30}}}
	for name, c := range map[string]struct {
		q    int
		r    reply
		want bool
	}{
		"planted region reported":    {0, good, true},
		"planted region missing":     {0, reply{status: 200, matches: []match{{TextID: 6, Start: 8, End: 80}}}, false},
		"span too short":             {0, reply{status: 200, matches: []match{{TextID: 5, Start: 20, End: 80}}}, false},
		"non-200":                    {0, reply{status: 429}, false},
		"partial":                    {0, reply{status: 200, partial: true, matches: good.matches}, false},
		"unplanted, nothing found":   {1, reply{status: 200}, true},
		"unplanted, something found": {1, good, false},
	} {
		if got := newChecker(qs).ok(c.q, c.r); got != c.want {
			t.Errorf("%s: ok = %v, want %v", name, got, c.want)
		}
	}
	// A query seen before must get the same answer again.
	if !chk.ok(0, good) {
		t.Fatal("first answer rejected")
	}
	changed := reply{status: 200, matches: []match{{TextID: 5, Start: 8, End: 81, Collisions: 30}}}
	if chk.ok(0, changed) {
		t.Errorf("a changed answer to a repeated query was accepted")
	}
	res := newResult()
	res.failed = 1
	if res.correct() {
		t.Errorf("a result with a failed op is correct")
	}
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []benchLoad   `json:"workloads"`
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

type benchLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// writeBounds must change the seven bounds and nothing else.
func TestWriteBoundsKeepsTheRestOfTheFile(t *testing.T) {
	before, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	bounds := make(map[string]float64)
	for i, d := range endToEnd {
		bounds[d.name] = float64(i+1) / 100
	}
	if err := writeBounds(path, bounds); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var was, is benchFile
	if err := json.Unmarshal(before, &was); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &is); err != nil {
		t.Fatalf("the rewritten file does not parse: %v", err)
	}
	for i, m := range is.EndToEnd {
		if m.Bound != bounds[m.Name] {
			t.Errorf("%s: bound %v, want %v", m.Name, m.Bound, bounds[m.Name])
		}
		is.EndToEnd[i].Bound = was.EndToEnd[i].Bound
	}
	if !reflect.DeepEqual(was, is) {
		t.Errorf("writeBounds changed more than the bounds")
	}
	if err := writeBounds(path, map[string]float64{"no_such_metric": 0.05}); err == nil {
		t.Errorf("a bound for a metric the file does not have was accepted")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json must name exactly the workloads and metrics the program
// reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Errorf("trailing data after the object")
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	var e2e []metricDef
	sawSetup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the program's list:\n got %v\nwant %v", e2e, endToEnd)
	}
	if !sawSetup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	var layers []metricDef
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the program's list")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or used twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}
