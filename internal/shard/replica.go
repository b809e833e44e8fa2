package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ndss/internal/index"
	"ndss/internal/search"
)

// ReplicaConfig tunes a ReplicaSet's resilience behaviour. The zero
// value selects the documented defaults; a negative HedgeDelayMin
// disables hedging.
type ReplicaConfig struct {
	// HedgeDelayMin floors the hedge trigger: a leg hedges once its
	// first attempt has run for max(replica streaming P95,
	// HedgeDelayMin). Default 5ms; negative disables hedging.
	HedgeDelayMin time.Duration
	// BreakerFailures consecutive failures open a replica's circuit
	// breaker; retries and hedges go only to closed replicas, so this
	// is also what bounds their amplification. Default 5.
	BreakerFailures int
	// ProbeInterval paces the background health checks of a set of two
	// or more replicas, the path by which an open or quarantined
	// replica rejoins rotation. Default 2s.
	ProbeInterval time.Duration
	// Seed fixes the routing RNG for reproducible tests; 0
	// derives a seed from the set's name.
	Seed int64
}

func (c ReplicaConfig) withDefaults() ReplicaConfig {
	if c.HedgeDelayMin == 0 {
		c.HedgeDelayMin = 5 * time.Millisecond
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	return c
}

// replica is one interchangeable copy of a shard's index plus its
// routing state: in-flight count (power-of-two-choices), circuit
// breaker, streaming latency window, and attempt counters.
type replica struct {
	client ShardClient
	idx    int

	inflight    atomic.Int64
	br          breaker
	lat         quantileWindow
	quarantined atomic.Bool

	requests atomic.Int64
	errors   atomic.Int64
	retries  atomic.Int64
	hedges   atomic.Int64
}

// ReplicaSet serves one doc-range shard from N interchangeable
// replicas behind the ShardClient surface, so the coordinator's
// fan-out/merge logic is unchanged — resilience is this layer's job:
//
//   - Routing: each attempt goes to a healthy (non-quarantined,
//     breaker-permitting) replica, chosen by power-of-two-choices on
//     in-flight count (ties to the lower index, so tests are
//     deterministic under a fixed seed).
//   - Retry: a transiently-failing attempt retries at once on a
//     different breaker-closed replica, each replica tried at most once
//     per leg.
//   - Hedging: when the first attempt outruns the replica's streaming
//     P95, one speculative attempt goes to another breaker-closed
//     replica; the first answer wins, the loser is canceled, and a
//     winning hedge counts one failure against each attempt it beat.
//   - Breaker + quarantine: consecutive failures open a per-replica
//     breaker, and the background prober closes it again once the
//     replica answers. Only a primary may fail open to an open replica,
//     so the breakers alone bound retry and hedge amplification. A
//     replica whose build id diverges from the group majority is
//     quarantined outright, so mixed builds are never merged.
//
// All replicas must serve the same index build: identical K, Seed, T,
// and NumTexts. Results from any replica are interchangeable, which is
// what makes retrying and hedging sound.
type ReplicaSet struct {
	name     string
	cfg      ReplicaConfig
	replicas []*replica
	meta     index.Meta
	rng      *lockedRand

	hedgeWins atomic.Int64

	mu         sync.Mutex
	groupBuild string // guarded by mu

	probeStop context.CancelFunc // nil for a single replica
	probeWG   sync.WaitGroup
}

// NewReplicaSet groups clients as interchangeable replicas of one
// shard. At least one replica must report index metadata (a deferred
// replica that was unreachable at construction reports none and starts
// quarantined until a health probe learns its build); replicas with
// known metadata must agree exactly, NumTexts included — a replica
// serving a different corpus slice would corrupt global text ids. The
// set takes ownership of the clients: Close closes them. A set of two
// or more replicas runs its health prober from construction to Close.
func NewReplicaSet(name string, clients []ShardClient, cfg ReplicaConfig) (*ReplicaSet, error) {
	if len(clients) == 0 {
		return nil, errors.New("shard: replica set needs at least one replica")
	}
	cfg = cfg.withDefaults()
	var meta index.Meta
	for _, cl := range clients {
		if m := cl.Meta(); m.K != 0 {
			meta = m
			break
		}
	}
	if meta.K == 0 {
		return nil, fmt.Errorf("shard: replica set %s: no replica reports index metadata", name)
	}
	if name == "" {
		name = clients[0].Name()
	}
	reps := make([]*replica, len(clients))
	for i, cl := range clients {
		m := cl.Meta()
		if m.K != 0 {
			if m.K != meta.K || m.Seed != meta.Seed || m.T != meta.T {
				return nil, &MixedShardsError{Shard: cl.Name(), Want: meta, Got: m}
			}
			if m.NumTexts != meta.NumTexts {
				return nil, fmt.Errorf("shard: replica %s serves %d texts, its group serves %d (replicas must be copies of one shard)",
					cl.Name(), m.NumTexts, meta.NumTexts)
			}
		}
		reps[i] = &replica{client: cl, idx: i}
		reps[i].br.threshold = cfg.BreakerFailures
	}
	seed := cfg.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(name))
		seed = int64(h.Sum64())
	}
	rs := &ReplicaSet{
		name:     name,
		cfg:      cfg,
		replicas: reps,
		meta:     meta,
		rng:      newLockedRand(seed),
	}
	rs.requarantine(nil)
	if rs.multi() {
		rs.startProber()
	}
	return rs, nil
}

func (r *ReplicaSet) multi() bool { return len(r.replicas) > 1 }

// Name identifies the replica group (its configuration string).
func (r *ReplicaSet) Name() string { return r.name }

// Meta returns the group's index metadata, fixed at construction.
func (r *ReplicaSet) Meta() index.Meta { return r.meta }

// BuildID returns the group's agreed build id: the majority build
// among replicas, refreshed by health probes. Empty until any replica
// has reported a build.
func (r *ReplicaSet) BuildID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.groupBuild
}

// requarantine recomputes which replicas are safe to query: the
// majority build id among the voting replicas (ties to the
// lowest-index replica's build) defines the group build, and any
// replica with no build, a diverging build, or diverging index
// metadata is quarantined — routed around entirely, because merging
// answers from mixed builds silently corrupts results. fresh marks
// which replicas just answered a health probe and may vote; nil lets
// every replica vote. When nobody can vote the previous group build
// stands.
func (r *ReplicaSet) requarantine(fresh []bool) {
	counts := make(map[string]int)
	order := make(map[string]int)
	for _, rep := range r.replicas {
		if fresh != nil && !fresh[rep.idx] {
			continue
		}
		b := rep.client.BuildID()
		if b == "" {
			continue
		}
		if _, ok := order[b]; !ok {
			order[b] = rep.idx
		}
		counts[b]++
	}
	r.mu.Lock()
	majority := r.groupBuild
	if len(counts) > 0 {
		majority = ""
		for b, n := range counts {
			if majority == "" || n > counts[majority] ||
				(n == counts[majority] && order[b] < order[majority]) {
				majority = b
			}
		}
	}
	r.groupBuild = majority
	r.mu.Unlock()
	for _, rep := range r.replicas {
		b := rep.client.BuildID()
		m := rep.client.Meta()
		bad := b == "" || b != majority
		if m.K != 0 && (m.K != r.meta.K || m.Seed != r.meta.Seed || m.T != r.meta.T || m.NumTexts != r.meta.NumTexts) {
			bad = true
		}
		rep.quarantined.Store(bad)
	}
}

// pick chooses the replica for the next attempt, skipping quarantined
// and already-tried replicas, by power-of-two-choices on in-flight
// count among breaker-closed candidates (ties to the lower index). A
// retry or hedge (tried non-empty) goes to a closed replica or not at
// all. Only a primary fails open to the least-loaded open replica —
// when every replica's breaker is open, refusing to try at all would
// turn a recovered-but-unprobed group into a hard outage.
func (r *ReplicaSet) pick(tried map[int]bool) (*replica, bool) {
	var closed, rest []*replica
	collect := func(skipTried bool) {
		closed, rest = closed[:0], rest[:0]
		for _, c := range r.replicas {
			if c.quarantined.Load() || (skipTried && tried[c.idx]) {
				continue
			}
			if c.br.current() == BreakerClosed {
				closed = append(closed, c)
			} else {
				rest = append(rest, c)
			}
		}
	}
	collect(true)
	if len(closed) == 0 && len(rest) == 0 && len(tried) > 0 {
		// Every untried replica is quarantined; a repeat attempt on a
		// tried replica beats giving up.
		collect(false)
	}
	if n := len(closed); n > 0 {
		best := closed[0]
		if n > 1 {
			i := r.rng.intn(n)
			j := r.rng.intn(n - 1)
			if j >= i {
				j++
			}
			a, b := closed[i], closed[j]
			best = a
			la, lb := a.inflight.Load(), b.inflight.Load()
			if lb < la || (lb == la && b.idx < a.idx) {
				best = b
			}
		}
		return best, true
	}
	if len(tried) > 0 {
		return nil, false
	}
	var best *replica
	for _, c := range rest {
		if best == nil || c.inflight.Load() < best.inflight.Load() {
			best = c
		}
	}
	return best, best != nil
}

// retryableErr classifies failures worth retrying on another replica:
// remote failure or saturation/drain (500/429/503/504), connection
// failures, torn responses, and index read errors. The caller's own
// context expiring is never retryable, and a request-level error (bad
// query) would fail identically everywhere.
func retryableErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Transient()
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var ire *index.ReadError
	if errors.As(err, &ire) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// attemptOutcome is one replica attempt's result, reported by its
// goroutine.
type attemptOutcome struct {
	pi      int
	matches []search.Match
	stats   *search.Stats
	err     error
	dur     time.Duration
}

// attemptState is the leg-side bookkeeping for one launched attempt.
type attemptState struct {
	rep     *replica
	attempt int
	hedge   bool
	start   time.Duration // offset from leg start
	spanID  string        // the attempt's span id when the query is traced
	cancel  context.CancelFunc
	done    bool
}

// SearchContext is the resilient control loop: it launches a primary
// attempt on the picked replica, hedges once if the attempt outruns the
// replica's P95, retries transient failures on a different
// breaker-closed replica, and returns the first success with every
// attempt (winner, losers, cancellations) recorded in Stats.Attempts for
// the coordinator to attribute.
func (r *ReplicaSet) SearchContext(ctx context.Context, query []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	legStart := time.Now()

	// A leg tries each replica at most once before giving up (a hedge
	// may repeat one), so the buffer holds the primary, its
	// len(replicas)-1 retries and one hedge.
	maxRetries := len(r.replicas) - 1
	resCh := make(chan attemptOutcome, maxRetries+2)
	var pendings []*attemptState
	defer func() {
		// Losers keep running until their cancel lands; the buffered
		// channel lets their goroutines exit without a reader.
		for _, p := range pendings {
			p.cancel()
		}
	}()
	tried := make(map[int]bool, len(r.replicas))

	launch := func(rep *replica, hedge bool) {
		pi := len(pendings)
		// Every attempt — primary, retry, hedge — runs under its own
		// child span id, so the remote side's record (and the wire
		// headers) identify exactly which attempt carried it.
		actx, spanID := childTraceContextID(ctx)
		actx, cancel := context.WithCancel(actx)
		p := &attemptState{
			rep: rep, attempt: pi, hedge: hedge,
			start: time.Since(legStart), spanID: spanID, cancel: cancel,
		}
		pendings = append(pendings, p)
		tried[rep.idx] = true
		rep.inflight.Add(1)
		rep.requests.Add(1)
		if hedge {
			rep.hedges.Add(1)
		} else if pi > 0 {
			rep.retries.Add(1)
		}
		go func() {
			t0 := time.Now()
			m, st, err := rep.client.SearchContext(actx, query, opts)
			dur := time.Since(t0)
			rep.inflight.Add(-1)
			// Breaker and latency accounting happens here, in the
			// attempt's own goroutine: a hedge loser that limps home
			// after the leg returned still counts.
			switch {
			case err == nil:
				rep.br.onSuccess()
				rep.lat.observe(dur)
			case errors.Is(err, context.Canceled):
				// A canceled attempt says nothing about the replica.
			case retryableErr(err) || errors.Is(err, context.DeadlineExceeded):
				rep.errors.Add(1)
				rep.br.onFailure()
			default:
				// The replica answered; the request itself was bad.
				// Count the error without tripping the breaker — the
				// replica is demonstrably serving.
				rep.errors.Add(1)
				rep.br.onSuccess()
			}
			resCh <- attemptOutcome{pi: pi, matches: m, stats: st, err: err, dur: dur}
		}()
	}

	record := func(attempts []search.ShardAttempt, p *attemptState, errStr string, dur time.Duration) []search.ShardAttempt {
		return append(attempts, search.ShardAttempt{
			Replica: p.rep.client.Name(), ReplicaIdx: p.rep.idx,
			Attempt: p.attempt, Hedge: p.hedge, Err: errStr,
			SpanID: p.spanID, Start: p.start, Dur: dur,
		})
	}
	// finish synthesizes entries for attempts still in flight (they are
	// being abandoned) and fixes the attempt order.
	finish := func(attempts []search.ShardAttempt, reason string) []search.ShardAttempt {
		now := time.Since(legStart)
		for _, p := range pendings {
			if !p.done {
				attempts = record(attempts, p, reason, now-p.start)
			}
		}
		sort.Slice(attempts, func(i, j int) bool { return attempts[i].Attempt < attempts[j].Attempt })
		return attempts
	}
	fail := func(attempts []search.ShardAttempt, reason string, err error) ([]search.Match, *search.Stats, error) {
		if !r.multi() {
			return nil, nil, err
		}
		return nil, &search.Stats{Attempts: finish(attempts, reason)}, err
	}

	rep, ok := r.pick(tried)
	if !ok {
		return nil, nil, fmt.Errorf("shard %s: no replica available (all quarantined)", r.name)
	}
	var hedgeC <-chan time.Time
	if r.cfg.HedgeDelayMin >= 0 && r.multi() {
		d := rep.lat.quantile(0.95)
		if d < r.cfg.HedgeDelayMin {
			d = r.cfg.HedgeDelayMin
		}
		ht := time.NewTimer(d)
		defer ht.Stop()
		hedgeC = ht.C
	}
	launch(rep, false)

	var attempts []search.ShardAttempt
	outstanding := 1
	retriesUsed := 0
	var lastErr error
	for {
		select {
		case res := <-resCh:
			p := pendings[res.pi]
			p.done = true
			p.cancel()
			outstanding--
			if res.err == nil {
				if p.hedge {
					r.hedgeWins.Add(1)
					// Every attempt the hedge beat has run for at least
					// the hedge delay: one failure on its breaker, so a
					// black-holed replica opens instead of being hedged
					// around forever. Its own goroutine sees Canceled
					// and adds nothing.
					for _, q := range pendings {
						if !q.done && q.rep != p.rep {
							q.rep.br.onFailure()
						}
					}
				}
				st := res.stats
				if r.multi() {
					if st == nil {
						st = &search.Stats{}
					}
					attempts = record(attempts, p, "", res.dur)
					st.Attempts = finish(attempts, "canceled")
				}
				return res.matches, st, nil
			}
			lastErr = res.err
			attempts = record(attempts, p, shardErrString(res.err), res.dur)
			if outstanding > 0 {
				continue // a hedge is still running; it may yet win
			}
			if ctx.Err() != nil {
				return fail(attempts, "", ctx.Err())
			}
			if !retryableErr(res.err) || retriesUsed >= maxRetries {
				return fail(attempts, "", lastErr)
			}
			nrep, ok := r.pick(tried)
			if !ok {
				return fail(attempts, "", lastErr)
			}
			retriesUsed++
			outstanding++
			launch(nrep, false)
		case <-hedgeC:
			hedgeC = nil // one hedge per leg
			if outstanding == 0 {
				continue
			}
			hrep, ok := r.pick(tried)
			if !ok {
				continue
			}
			outstanding++
			launch(hrep, true)
		case <-ctx.Done():
			return fail(attempts, shardErrString(ctx.Err()), ctx.Err())
		}
	}
}

// CheckHealth probes every replica concurrently, closes the breaker of
// each replica that answers (the probe proved it serving), and
// recomputes build-id quarantine from the replicas that answered. The
// group is healthy while any replica is.
func (r *ReplicaSet) CheckHealth(ctx context.Context) error {
	errs := make([]error, len(r.replicas))
	fresh := make([]bool, len(r.replicas))
	var wg sync.WaitGroup
	for i, rep := range r.replicas {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			probeCtx := childTraceContext(ctx)
			if err := rep.client.CheckHealth(probeCtx); err != nil {
				errs[i] = fmt.Errorf("replica %s: %w", rep.client.Name(), err)
				return
			}
			fresh[i] = true
			rep.br.onSuccess()
		}(i, rep)
	}
	wg.Wait()
	r.requarantine(fresh)
	for _, e := range errs {
		if e == nil {
			return nil
		}
	}
	return errors.Join(errs...)
}

// startProber launches the background health loop: every
// ProbeInterval it re-runs CheckHealth so a recovered or rebuilt
// replica rejoins — or is quarantined — without needing query traffic
// to find out. Close stops it.
func (r *ReplicaSet) startProber() {
	interval := r.cfg.ProbeInterval
	//lint:ignore ctxflow the loop lives from NewReplicaSet to Close, not within any request; Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	r.probeStop = cancel
	r.probeWG.Add(1)
	go func() {
		defer r.probeWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				hctx, hcancel := context.WithTimeout(ctx, interval)
				_ = r.CheckHealth(hctx) // per-replica state is the point; the joined error has no reader
				hcancel()
			}
		}
	}()
}

// Close stops the prober and closes every replica.
func (r *ReplicaSet) Close() error {
	if r.probeStop != nil {
		r.probeStop()
		r.probeWG.Wait()
	}
	errs := make([]error, len(r.replicas))
	for i, rep := range r.replicas {
		errs[i] = rep.client.Close()
	}
	return errors.Join(errs...)
}

// ReplicaMetrics snapshots the set's per-replica routing state for the
// /metrics exposition.
func (r *ReplicaSet) ReplicaMetrics() ReplicaSetMetrics {
	out := ReplicaSetMetrics{
		HedgeWins: r.hedgeWins.Load(),
		Replicas:  make([]ReplicaMetrics, len(r.replicas)),
	}
	for i, rep := range r.replicas {
		out.Replicas[i] = ReplicaMetrics{
			Replica:     rep.client.Name(),
			BuildID:     rep.client.BuildID(),
			Requests:    rep.requests.Load(),
			Errors:      rep.errors.Load(),
			Retries:     rep.retries.Load(),
			Hedges:      rep.hedges.Load(),
			Breaker:     rep.br.current(),
			Quarantined: rep.quarantined.Load(),
		}
	}
	return out
}
