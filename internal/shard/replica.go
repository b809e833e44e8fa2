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
	"ndss/internal/obs"
	"ndss/internal/search"
)

// ReplicaConfig tunes a ReplicaSet's resilience behaviour. The zero
// value selects the documented defaults; negative values disable the
// corresponding mechanism where noted.
type ReplicaConfig struct {
	// MaxRetries caps the extra attempts (beyond the primary) a single
	// leg may make after transient failures. Default 2; negative
	// disables retries.
	MaxRetries int
	// RetryBudget is the fraction of a retry token each primary attempt
	// earns: sustained retries+hedges cannot exceed this fraction of
	// the recent primary request rate. Default 0.1.
	RetryBudget float64
	// RetryBurst is the token bucket's capacity — how many retries a
	// brief blip may issue back-to-back. Default 10.
	RetryBurst float64
	// BackoffBase/BackoffMax bound the decorrelated-jitter backoff
	// between retries. Defaults 1ms / 50ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeDelayMin floors the hedge trigger: a leg hedges once its
	// first attempt has run for max(replica streaming P95,
	// HedgeDelayMin). Default 5ms; negative disables hedging.
	HedgeDelayMin time.Duration
	// BreakerFailures consecutive failures open a replica's circuit
	// breaker. Default 5.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects traffic
	// before letting one half-open trial through. Default 1s.
	BreakerCooldown time.Duration
	// ProbeInterval paces StartProber's background health checks.
	// Default 2s.
	ProbeInterval time.Duration
	// Seed fixes the routing/jitter RNG for reproducible tests; 0
	// derives a seed from the set's name.
	Seed int64
}

func (c ReplicaConfig) withDefaults() ReplicaConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 0.1
	}
	if c.RetryBurst == 0 {
		c.RetryBurst = 10
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 50 * time.Millisecond
	}
	if c.HedgeDelayMin == 0 {
		c.HedgeDelayMin = 5 * time.Millisecond
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
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
//   - Retry: a transiently-failing attempt retries on a different
//     replica under decorrelated-jitter backoff, a per-leg retry cap,
//     and a token-bucket budget earned by primary traffic.
//   - Hedging: when the first attempt outruns the replica's streaming
//     P95, one speculative attempt goes to another replica; the first
//     answer wins and the loser is canceled.
//   - Breaker + quarantine: consecutive failures open a per-replica
//     breaker (half-open single-trial recovery); a replica whose build
//     id diverges from the group majority is quarantined outright, so
//     mixed builds are never merged.
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
	budget   *tokenBucket

	hedgeWins    atomic.Int64
	budgetDenied atomic.Int64

	mu         sync.Mutex
	groupBuild string             // guarded by mu
	probeStop  context.CancelFunc // guarded by mu
	probeWG    sync.WaitGroup
}

// NewReplicaSet groups clients as interchangeable replicas of one
// shard. At least one replica must report index metadata (a deferred
// replica that was unreachable at construction reports none and starts
// quarantined until a health probe learns its build); replicas with
// known metadata must agree exactly, NumTexts included — a replica
// serving a different corpus slice would corrupt global text ids. The
// set takes ownership of the clients: Close closes them.
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
		reps[i].br.cooldown = cfg.BreakerCooldown
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
		budget:   newTokenBucket(cfg.RetryBurst),
	}
	rs.requarantine(nil)
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

// IOStats sums the replicas' cumulative I/O counters.
func (r *ReplicaSet) IOStats() index.IOStats {
	var out index.IOStats
	for _, rep := range r.replicas {
		st := rep.client.IOStats()
		out.BytesRead += st.BytesRead
		out.ReadTime += st.ReadTime
	}
	return out
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
// and already-tried replicas. Preference order: power-of-two-choices
// on in-flight count among breaker-closed candidates (ties to the
// lower index); then a half-open trial slot if any breaker grants one;
// then fail-open to the least-loaded remaining candidate — when every
// replica's breaker is open, refusing to try at all would turn a
// recovered-but-unprobed group into a hard outage. trial reports that
// the pick claimed a half-open slot the attempt must settle.
func (r *ReplicaSet) pick(tried map[int]bool) (rep *replica, trial, ok bool) {
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
		return best, false, true
	}
	for _, c := range rest {
		if allowed, claimed := c.br.allow(); allowed {
			return c, claimed, true
		}
	}
	var best *replica
	for _, c := range rest {
		if best == nil || c.inflight.Load() < best.inflight.Load() {
			best = c
		}
	}
	if best != nil {
		return best, false, true
	}
	return nil, false, false
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
	trial   bool
	start   time.Duration // offset from leg start
	spanID  string        // the attempt's span id when the query is traced
	cancel  context.CancelFunc
	done    bool
}

// do is the resilient control loop behind every query entry point: it
// launches a primary attempt on the picked replica, hedges once if the
// attempt outruns the replica's P95, retries transient failures on a
// different replica under the budget, and returns the first success
// with every attempt (winner, losers, cancellations) recorded in
// Stats.Attempts for the coordinator to attribute.
func (r *ReplicaSet) do(ctx context.Context, run func(ctx context.Context, cl ShardClient) ([]search.Match, *search.Stats, error)) ([]search.Match, *search.Stats, error) {
	legStart := obs.NowMono()
	r.budget.earn(r.cfg.RetryBudget)

	maxAttempts := 2 + r.cfg.MaxRetries // primary + retries + one hedge
	resCh := make(chan attemptOutcome, maxAttempts)
	var pendings []*attemptState
	defer func() {
		// Losers keep running until their cancel lands; the buffered
		// channel lets their goroutines exit without a reader.
		for _, p := range pendings {
			p.cancel()
		}
	}()
	tried := make(map[int]bool, len(r.replicas))

	launch := func(rep *replica, trial, hedge bool) {
		pi := len(pendings)
		// Every attempt — primary, retry, hedge — runs under its own
		// child span id, so the remote side's spans (and the wire
		// headers) identify exactly which attempt carried them.
		actx, spanID := childTraceContextID(ctx)
		actx, cancel := context.WithCancel(actx)
		p := &attemptState{
			rep: rep, attempt: pi, hedge: hedge, trial: trial,
			start: obs.SinceMono(legStart), spanID: spanID, cancel: cancel,
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
			t0 := obs.NowMono()
			m, st, err := run(actx, rep.client)
			dur := obs.SinceMono(t0)
			rep.inflight.Add(-1)
			// Breaker and latency accounting happens here, in the
			// attempt's own goroutine: a hedge loser that limps home
			// after the leg returned must still settle its trial slot.
			switch {
			case err == nil:
				rep.br.onSuccess()
				rep.lat.observe(dur)
			case errors.Is(err, context.Canceled):
				// A canceled attempt says nothing about the replica.
				if trial {
					rep.br.releaseTrial()
				}
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
		now := obs.SinceMono(legStart)
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

	rep, trial, ok := r.pick(tried)
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
	launch(rep, trial, false)

	var attempts []search.ShardAttempt
	outstanding := 1
	retriesUsed := 0
	var lastErr error
	var backoff time.Duration
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
			if !r.multi() || !retryableErr(res.err) || retriesUsed >= r.cfg.MaxRetries {
				return fail(attempts, "", lastErr)
			}
			if !r.budget.take() {
				r.budgetDenied.Add(1)
				return fail(attempts, "", lastErr)
			}
			backoff = nextBackoff(r.rng, r.cfg.BackoffBase, backoff, r.cfg.BackoffMax)
			if !sleepCtx(ctx, backoff) {
				return fail(attempts, "", ctx.Err())
			}
			nrep, ntrial, ok := r.pick(tried)
			if !ok {
				return fail(attempts, "", lastErr)
			}
			retriesUsed++
			outstanding++
			launch(nrep, ntrial, false)
		case <-hedgeC:
			hedgeC = nil // one hedge per leg
			if outstanding == 0 {
				continue
			}
			hrep, htrial, ok := r.pick(tried)
			if !ok {
				continue
			}
			if !r.budget.take() {
				r.budgetDenied.Add(1)
				continue
			}
			outstanding++
			launch(hrep, htrial, true)
		case <-ctx.Done():
			return fail(attempts, shardErrString(ctx.Err()), ctx.Err())
		}
	}
}

func (r *ReplicaSet) SearchContext(ctx context.Context, query []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	return r.do(ctx, func(ctx context.Context, cl ShardClient) ([]search.Match, *search.Stats, error) {
		return cl.SearchContext(ctx, query, opts)
	})
}

func (r *ReplicaSet) SearchTopKContext(ctx context.Context, query []uint32, opts search.TopKOptions) ([]search.Match, *search.Stats, error) {
	return r.do(ctx, func(ctx context.Context, cl ShardClient) ([]search.Match, *search.Stats, error) {
		return cl.SearchTopKContext(ctx, query, opts)
	})
}

// Explain routes a plan request to one healthy replica.
// Planning is cheap and advisory, so it gets routing but no retries.
func (r *ReplicaSet) Explain(ctx context.Context, query []uint32, opts search.Options) (*search.Plan, error) {
	rep, trial, ok := r.pick(nil)
	if !ok {
		return nil, fmt.Errorf("shard %s: no replica available (all quarantined)", r.name)
	}
	plan, err := rep.client.Explain(ctx, query, opts)
	if trial {
		if err == nil {
			rep.br.onSuccess()
		} else if !errors.Is(err, context.Canceled) {
			rep.br.onFailure()
		} else {
			rep.br.releaseTrial()
		}
	}
	return plan, err
}

// CheckHealth probes every replica concurrently, resets the breaker of
// each replica that answers (the probe proved it serving — no trial
// traffic needed), and recomputes build-id quarantine from the
// replicas that answered. The group is healthy while any replica is.
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
			rep.br.reset()
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

// StartProber launches the background health loop: every interval
// (ProbeInterval when interval <= 0) it re-runs CheckHealth so a
// recovered or rebuilt replica rejoins — or is quarantined — without
// needing query traffic to find out. The loop stops when ctx is
// canceled or the set is closed. Starting twice is a no-op.
func (r *ReplicaSet) StartProber(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = r.cfg.ProbeInterval
	}
	r.mu.Lock()
	if r.probeStop != nil {
		r.mu.Unlock()
		return
	}
	pctx, cancel := context.WithCancel(ctx)
	r.probeStop = cancel
	r.mu.Unlock()
	r.probeWG.Add(1)
	go func() {
		defer r.probeWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-pctx.Done():
				return
			case <-t.C:
				hctx, hcancel := context.WithTimeout(pctx, interval)
				_ = r.CheckHealth(hctx) // per-replica state is the point; the joined error has no reader
				hcancel()
			}
		}
	}()
}

// Close stops the prober and closes every replica.
func (r *ReplicaSet) Close() error {
	r.mu.Lock()
	stop := r.probeStop
	r.mu.Unlock()
	if stop != nil {
		stop()
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
		HedgeWins:    r.hedgeWins.Load(),
		BudgetDenied: r.budgetDenied.Load(),
		Replicas:     make([]ReplicaMetrics, len(r.replicas)),
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
