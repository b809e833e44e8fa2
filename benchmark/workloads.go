package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ndss/internal/corpus"
	"ndss/internal/hash"
	"ndss/internal/server"
)

// The four workloads.
const (
	wlQueryHit     = "query-hit"
	wlQueryMiss    = "query-miss"
	wlServeSharded = "serve-sharded"
	wlIngestChurn  = "ingest-churn"
)

var workloadNames = []string{wlQueryHit, wlQueryMiss, wlServeSharded, wlIngestChurn}

const (
	numShards = 2
	hotEvery  = 5 // one serve-sharded request in so many goes to the hot set
	hotShare  = 1.0 / hotEvery
)

// queryset is a query list and what is known about each answer.
type queryset struct {
	tokens [][]uint32
	hit    []bool    // planted: has at least one true match
	at     []planted // where a hit query was copied from
}

func (qs *queryset) add(q []uint32, hit bool, at planted) {
	qs.tokens = append(qs.tokens, q)
	qs.hit = append(qs.hit, hit)
	qs.at = append(qs.at, at)
}

// checker decides whether an answer is right without a reference
// index: a planted query must report a span over the region it was
// copied from, an unplanted one nothing, and a query seen before must
// get the answer it got then. The oracle gate (oracle.go) checks a
// sample exactly.
type checker struct {
	qs   *queryset
	seen [][]match
	has  []bool
}

func newChecker(qs *queryset) *checker {
	return &checker{qs: qs, seen: make([][]match, len(qs.tokens)), has: make([]bool, len(qs.tokens))}
}

func (c *checker) ok(q int, r reply) bool {
	if r.status != http.StatusOK || r.partial {
		return false
	}
	if c.qs.hit[q] {
		if !covers(r.matches, c.qs.at[q].text, c.qs.at[q].start, c.qs.at[q].start+queryLen-1) {
			return false
		}
	} else if len(r.matches) != 0 {
		return false
	}
	if !c.has[q] {
		c.seen[q] = append([]match(nil), r.matches...)
		c.has[q] = true
		return true
	}
	return equalMatches(c.seen[q], r.matches)
}

// covers reports whether some match in text spans all of [lo, hi].
func covers(ms []match, text uint32, lo, hi int32) bool {
	for _, m := range ms {
		if m.TextID == text && m.Start <= lo && m.End >= hi {
			return true
		}
	}
	return false
}

func equalMatches(a, b []match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// round is what one closed-loop pass of the query client measured.
type round struct {
	lat        []float64 // ms, one per attempted op
	cachedLat  []float64 // µs, the ops answered from the result cache
	wall, cpu  time.Duration
	attempted  int
	failed     int
	rejected   int // 429s
	partial    int
	respBytes  int64
	ioBytes    int64
	mallocs    uint64
	allocBytes uint64
}

func (r round) correct() int { return r.attempted - r.failed }

func (r round) qps() float64 { return float64(r.correct()) / r.wall.Seconds() }

// add folds another stretch of the same client into r.
func (r *round) add(o round) {
	r.lat = append(r.lat, o.lat...)
	r.cachedLat = append(r.cachedLat, o.cachedLat...)
	r.wall += o.wall
	r.cpu += o.cpu
	r.attempted += o.attempted
	r.failed += o.failed
	r.rejected += o.rejected
	r.partial += o.partial
	r.respBytes += o.respBytes
	r.ioBytes += o.ioBytes
	r.mallocs += o.mallocs
	r.allocBytes += o.allocBytes
}

// runRound is runOps from the start of ops, after a garbage collection
// that is not timed.
func runRound(tgt target, ops []int, chk *checker, maxOps int, dur time.Duration, rec *recorder) round {
	runtime.GC()
	return runOps(tgt, ops, 0, chk, maxOps, dur, rec)
}

// runRounds replays the whole op sequence, round after round, until dur
// has passed; a round begun is finished. Every round is the same ops in
// the same order, so position i of one round and position i of another
// are the same op, which floors relies on.
func runRounds(tgt target, ops []int, chk *checker, dur time.Duration) []round {
	var rounds []round
	for t0 := time.Now(); len(rounds) == 0 || time.Since(t0) < dur; {
		rounds = append(rounds, runRound(tgt, ops, chk, len(ops), 0, nil))
	}
	return rounds
}

// floors returns, for every position of the op sequence the rounds
// replayed, the fastest of its latencies over the rounds. The machine the
// benchmark runs on shares its memory system with others, and their
// traffic slows single ops by tenths for stretches of milliseconds to
// seconds; it never speeds one up. The fastest of a handful of repeats,
// taken seconds apart, is therefore the latency of the op on the quiet
// machine, and repeats from run to run where a mean or a median does not.
func floors(rounds []round) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	out := append([]float64(nil), rounds[0].lat...)
	for _, r := range rounds[1:] {
		for i, l := range r.lat {
			if i < len(out) && l < out[i] {
				out[i] = l
			}
		}
	}
	return out
}

// runOps sends ops to tgt one at a time, each after the reply to the
// one before: a closed loop with one client. It starts at ops[from],
// stops after maxOps ops (if positive) or once dur has passed (if
// positive), and wraps around ops if it must.
func runOps(tgt target, ops []int, from int, chk *checker, maxOps int, dur time.Duration, rec *recorder) round {
	var r round
	if maxOps <= 0 && dur <= 0 {
		return r
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	for i := 0; maxOps <= 0 || i < maxOps; i++ {
		start := time.Now()
		if dur > 0 && start.Sub(t0) >= dur {
			break
		}
		q := ops[(from+i)%len(ops)]
		var (
			reqID string
			s0    int64
		)
		if rec != nil {
			reqID = "q" + strconv.Itoa(rec.nextID())
			s0 = rec.now()
		}
		rep, err := tgt.query(reqID, q)
		if rec != nil {
			rec.add(spanClient, reqID, "", s0)
		}
		d := time.Since(start)
		r.attempted++
		r.lat = append(r.lat, ms(d))
		if rep.status == http.StatusTooManyRequests {
			r.rejected++
		}
		if rep.partial {
			r.partial++
		}
		if err != nil || !chk.ok(q, rep) {
			r.failed++
			continue
		}
		if rep.cached {
			r.cachedLat = append(r.cachedLat, us(d))
		}
		r.respBytes += int64(rep.bytes)
		r.ioBytes += rep.ioBytes
	}
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return r
}

// ingestRun is what a stream of Server.Ingest calls measured.
type ingestRun struct {
	lat    []float64 // ms from the instant the call was due to its return
	lag    []float64 // ms by which the schedule fired late
	failed int
}

// runSchedule makes n calls on a fixed schedule, call i due at i*every:
// an open loop. A dispatcher fires at the due times and never waits for
// the system; one worker makes the calls in order, so a stalled call
// delays the ones behind it, and their latency, measured from when they
// were due, shows the wait. Both goroutines have ended when runSchedule
// returns.
func runSchedule(n int, every time.Duration, call func(i int) error) ingestRun {
	run := ingestRun{lag: make([]float64, n)}
	t0 := time.Now()
	fired := make(chan int, n) // holds every send: the dispatcher never blocks
	go func() {
		defer close(fired)
		for i := 0; i < n; i++ {
			due := t0.Add(time.Duration(i) * every)
			time.Sleep(time.Until(due))
			run.lag[i] = ms(time.Since(due))
			fired <- i
		}
	}()
	for i := range fired {
		err := call(i)
		run.lat = append(run.lat, ms(time.Since(t0.Add(time.Duration(i)*every))))
		if err != nil {
			run.failed++
		}
	}
	return run
}

// scheduleIngests is runSchedule over Server.Ingest calls, one batch
// each.
func scheduleIngests(srv *server.Server, batches [][][]uint32, every time.Duration, rec *recorder) ingestRun {
	return runSchedule(len(batches), every, func(i int) error {
		_, err := timedIngest(srv, batches[i], rec, i)
		return err
	})
}

// runChurn runs the closed-loop query client for dur beside the
// open-loop ingest schedule, and returns when both have ended.
func runChurn(p *prepared, batches [][][]uint32, every, dur time.Duration, rec *recorder) (round, ingestRun) {
	done := make(chan ingestRun, 1)
	go func() { done <- scheduleIngests(p.st.ingest, batches, every, rec) }()
	r := runRound(p.st.tgt, p.ops, p.chk, 0, dur, rec)
	return r, <-done
}

// runCycles is the measured phase of the untraced ingest-churn run. One
// client alternates reads and writes: sc.churnQueries queries, then one
// Server.Ingest, compactAfter times over, and then one Server.Compact. A
// cycle so takes the index from one segment to compactAfter+1 and back.
// Every cycle starts from a fresh copy of the base index behind a fresh
// server, sends the same queries and ingests the same batches, so the
// cycles repeat each other as the rounds of the read-only workloads do.
// New cycles start until dur has passed; a cycle begun is finished.
// afterFirst runs once, after the first cycle's compaction.
//
// Each returned round holds the queries of one cycle: its wall time is
// the time spent in queries, and its CPU time that of the whole cycle,
// ingests and compaction included.
func runCycles(p *prepared, sc scale, dur time.Duration, afterFirst func() error) ([]round, ingestRun, error) {
	var cycles []round
	var ing ingestRun
	for t0 := time.Now(); len(cycles) == 0 || time.Since(t0) < dur; {
		if len(cycles) > 0 {
			if err := p.restart(); err != nil {
				return nil, ing, err
			}
		}
		runtime.GC()
		var c round
		cpu0 := cpuTime()
		for k := 0; k < compactAfter; k++ {
			c.add(runOps(p.st.tgt, p.ops, k*sc.churnQueries, p.chk, sc.churnQueries, 0, nil))
			d, err := timedIngest(p.st.ingest, p.batches[k], nil, 0)
			ing.lat = append(ing.lat, ms(d))
			if err != nil {
				ing.failed++
			}
		}
		if _, err := p.st.ingest.Compact(); err != nil {
			return nil, ing, err
		}
		c.cpu = cpuTime() - cpu0
		cycles = append(cycles, c)
		if len(cycles) == 1 {
			if err := afterFirst(); err != nil {
				return nil, ing, err
			}
		}
	}
	return cycles, ing, nil
}

// runQuiet makes the calls back to back with nothing else running.
func runQuiet(srv *server.Server, batches [][][]uint32, rec *recorder) ingestRun {
	var run ingestRun
	for i, b := range batches {
		d, err := timedIngest(srv, b, rec, i)
		run.lat = append(run.lat, ms(d))
		if err != nil {
			run.failed++
		}
	}
	return run
}

func timedIngest(srv *server.Server, batch [][]uint32, rec *recorder, i int) (time.Duration, error) {
	var s0 int64
	if rec != nil {
		s0 = rec.now()
	}
	start := time.Now()
	_, err := srv.Ingest(batch)
	d := time.Since(start)
	if rec != nil {
		rec.add(spanIngest, "i"+strconv.Itoa(i), "", s0)
	}
	return d, err
}

// prepared is a workload set up and warmed: the product of the phase
// setup_s times.
type prepared struct {
	st      *stack
	corpus  *corpus.Corpus
	fam     *hash.Family
	qs      *queryset
	chk     *checker
	ops     []int // the op sequence every round replays
	warm    []int // the untimed ops that end a set-up; none is in ops
	batches [][][]uint32
}

// setUp synthesizes the inputs of a workload from the seed, builds and
// opens its indexes, starts its listeners and runs the untimed warm-up
// ops. ingests is how many ingest batches to make. texts overrides the
// corpus size when positive (the probe-scale topologies of a traced
// run). background makes a churn topology compact by itself.
func setUp(workload string, sc scale, seed int64, dir string, ingests, texts int, background bool, rec *recorder) (p *prepared, err error) {
	if texts <= 0 {
		texts = sc.texts
		if workload == wlIngestChurn {
			texts = sc.churnBase
		}
	}
	p = &prepared{}
	if p.corpus, err = synthCorpus(texts, seed); err != nil {
		return nil, err
	}
	if p.fam, err = hash.NewFamily(hashK, familySeed); err != nil {
		return nil, err
	}
	if p.batches, err = ingestBatches(ingests, sc.batchTexts, seed); err != nil {
		return nil, err
	}
	if p.qs, p.ops, p.warm, err = makeOps(workload, sc, seed, p.corpus, p.fam); err != nil {
		return nil, err
	}
	p.chk = newChecker(p.qs)
	switch workload {
	case wlQueryHit, wlQueryMiss:
		p.st, err = startEngine(dir, p.corpus, p.qs.tokens, rec)
	case wlServeSharded:
		p.st, err = startSharded(dir, p.corpus, numShards, p.qs.tokens, rec)
	case wlIngestChurn:
		p.st, err = startChurn(dir, p.corpus, p.qs.tokens, background, rec)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	if err := p.warmUp(); err != nil {
		return nil, errors.Join(err, p.st.close())
	}
	return p, nil
}

func (p *prepared) warmUp() error {
	for _, q := range p.warm {
		rep, err := p.st.tgt.query("", q)
		if err != nil || !p.chk.ok(q, rep) {
			return errors.Join(fmt.Errorf("warm-up query %d failed (status %d)", q, rep.status), err)
		}
	}
	return nil
}

// restart closes a churn topology and opens it again on a fresh copy of
// the base index, warmed as set-up leaves it.
func (p *prepared) restart() error {
	if err := p.st.close(); err != nil {
		return err
	}
	if err := p.st.reopen(); err != nil {
		return err
	}
	return p.warmUp()
}

// makeOps builds a workload's query list, the op sequence its rounds
// replay, and the separate ops of the warm-up.
func makeOps(workload string, sc scale, seed int64, c *corpus.Corpus, fam *hash.Family) (*queryset, []int, []int, error) {
	qs := &queryset{}
	n := sc.queries
	if workload == wlServeSharded {
		n = sc.shardQueries
	}
	var hits [][]uint32
	var at []planted
	if workload != wlQueryMiss {
		var err error
		if hits, at, err = hitQueries(c, fam, n, seed); err != nil {
			return nil, nil, nil, err
		}
	}
	var misses [][]uint32
	if workload == wlQueryMiss || workload == wlServeSharded {
		misses = missQueries(n, seed)
	}
	switch workload {
	case wlQueryHit, wlIngestChurn:
		for i := range hits {
			qs.add(hits[i], true, at[i])
		}
	case wlQueryMiss:
		for _, q := range misses {
			qs.add(q, false, planted{})
		}
	case wlServeSharded:
		// Planted and unplanted queries alternate; the last hotSet of
		// them are the hot set.
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				qs.add(hits[i/2], true, at[i/2])
			} else {
				qs.add(misses[i/2], false, planted{})
			}
		}
	}
	if workload != wlServeSharded {
		ops := make([]int, n)
		for i := range ops {
			ops[i] = i
		}
		return qs, ops[:n-sc.warmup], ops[n-sc.warmup:], nil
	}
	// One request in every hotEvery goes to a random hot query, at a
	// random place among the others; the rest go to the fresh queries in
	// turn, until those run out. A fresh query comes round again only
	// after hundreds of others, more than the 256-entry result cache
	// holds, so it always misses; the hot set is small enough to stay
	// cached between its uses.
	rng := rand.New(rand.NewSource(subSeed(seed, streamOps)))
	fresh := n - sc.hotSet
	var ops []int
	for next := 0; next+hotEvery-1 <= fresh; {
		hot := rng.Intn(hotEvery)
		for i := 0; i < hotEvery; i++ {
			if i == hot {
				ops = append(ops, fresh+rng.Intn(sc.hotSet))
			} else {
				ops = append(ops, next)
				next++
			}
		}
	}
	// The warm-up touches the hot set and then the tail of the sequence,
	// which the rounds do not reach, so no round starts on a warm cache
	// of fresh queries.
	cut := (len(ops) - sc.warmup) / hotEvery * hotEvery
	var warm []int
	for q := fresh; q < n; q++ {
		warm = append(warm, q)
	}
	warm = append(warm, ops[cut:]...)
	return qs, ops[:cut], warm, nil
}

// heapLiveMB is the live heap after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC() // a sync.Pool gives its contents up over two collections
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runUntraced is the --trace 0 run of one workload: the end-to-end
// metrics, with no decorator installed anywhere.
func runUntraced(workload string, sc scale, seed int64, seconds float64, workdir string) (*result, error) {
	res := newResult()
	ingests := 0
	if workload == wlIngestChurn {
		ingests = compactAfter
	}

	// Set up several times and report the median; the last set-up is
	// the one measured.
	var p *prepared
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		dir := filepath.Join(workdir, "setup")
		if p != nil {
			if err := p.st.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		var err error
		runtime.GC()
		t0 := time.Now()
		if p, err = setUp(workload, sc, seed, dir, ingests, 0, false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = p.st.close() }() // error paths; the success path closes below
	res.set("setup_s", median(setups))

	// What the system holds and what the index weighs, taken with the
	// index in a state that is the same on every run of one seed.
	state := func() error {
		res.set("heap_live_mb", heapLiveMB())
		sz, err := measureIndex(p.st.dirs)
		if err != nil {
			return err
		}
		res.set("index_bytes_per_token", float64(sz.bytes)/float64(sz.tokens))
		return nil
	}
	measured := time.Duration(seconds * float64(time.Second))
	var rounds []round
	var ing ingestRun
	if workload == wlIngestChurn {
		var err error
		if rounds, ing, err = runCycles(p, sc, measured, state); err != nil {
			return nil, err
		}
	} else {
		rounds = runRounds(p.st.tgt, p.ops, p.chk, measured)
		if err := state(); err != nil {
			return nil, err
		}
	}
	res.queryMetrics(rounds)

	if err := gate(workload, sc, seed, p, res, workdir); err != nil {
		return nil, err
	}
	res.countIngests(ing)
	res.guard(workload, sc, rounds)
	return res, p.st.close()
}
