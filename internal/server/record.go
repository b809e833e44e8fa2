package server

// The flight recorder: one queryRecord per query that got past
// admission, held in one bounded store and rendered three ways — GET
// /debug/slowlog, GET /debug/trace/{request_id} and the query's one log
// line. The record is built once, after the query; everything derived
// from it (hex trace ids, reason names, log attrs, the cross-process
// flight tree) is computed only when it is rendered.

import (
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"ndss/internal/obs"
	"ndss/internal/search"
	"ndss/internal/wire"
)

// defaultRecorderEntries sizes each recorder view when
// Config.SlowlogEntries is zero.
const defaultRecorderEntries = 32

// reasonSet holds a record's retention reasons: bit i is traceReasons[i].
type reasonSet uint8

const (
	reasonSampled reasonSet = 1 << iota
	reasonSlow
	reasonError
	reasonPartial
	reasonRetried
	reasonHedged
)

// traceReasons names the retention reasons in bit order; the Prometheus
// exposition emits one ndss_trace_retained_total sample per reason so
// dashboards see every label value from the first scrape.
var traceReasons = [...]string{"sampled", "slow", "error", "partial", "retried", "hedged"}

const numTraceReasons = len(traceReasons)

// names lists the reasons in bit order, error first: [error sampled].
func (rs reasonSet) names() []string {
	out := []string{}
	if rs&reasonError != 0 {
		out = append(out, "error")
	}
	for i, name := range traceReasons {
		if rs&(1<<i)&^reasonError != 0 {
			out = append(out, name)
		}
	}
	return out
}

// queryRecord is one query's flight record. The exported fields are its
// /debug/slowlog entry.
type queryRecord struct {
	RequestID  string    `json:"request_id"`
	Endpoint   string    `json:"endpoint"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Theta      float64   `json:"theta"`
	NumTokens  int       `json:"num_tokens"`
	// Stats is the record's own copy of the response stats, so a held
	// record never pins the response's match list. Nil when the query
	// failed.
	Stats *wire.Stats `json:"stats,omitempty"`
	// Spans is this process's own span list.
	Spans []obs.Span `json:"spans,omitempty"`
	// Err is why the query failed. Failed queries enter only the
	// retained view, so no /debug/slowlog entry carries one.
	Err string `json:"err,omitempty"`

	tc      obs.TraceContext
	reasons reasonSet
}

// recordQuery builds the one record of a query that got past admission
// — executed (ws set) or failed (err set) — and files it: the sampled
// counter, the query's log line, and the recorder with its retention
// counters. ws is the record's own copy of the response stats; spans is
// this process's span list. A failed query is retained as an error,
// never as slow, and logs INFO "query" with the error.
func (s *Server) recordQuery(r *http.Request, ep endpoint, req wire.Request, start time.Time, ws *wire.Stats, spans []obs.Span, err error) {
	ctx := r.Context()
	tc, _ := obs.TraceFromContext(ctx)
	rec := queryRecord{
		RequestID:  obs.RequestIDFromContext(ctx),
		Endpoint:   ep.String(),
		Start:      start,
		DurationNS: int64(time.Since(start)),
		Theta:      req.Theta,
		NumTokens:  len(req.Tokens),
		Stats:      ws,
		Spans:      spans,
		tc:         tc,
	}
	// Tail-based retention: decided here, at completion, whatever the
	// head-sampling decision was at admission.
	if tc.Sampled {
		rec.reasons |= reasonSampled
		s.met.traceSampled.Add(1)
	}
	if err != nil {
		rec.reasons |= reasonError
		rec.Err = err.Error()
	} else {
		if t := s.cfg.SlowQueryThreshold; t > 0 && time.Duration(rec.DurationNS) >= t {
			rec.reasons |= reasonSlow
		}
		if ws.ShardsAnswered < ws.ShardsTotal {
			rec.reasons |= reasonPartial
		}
		retries, hedges := countExtraAttempts(ws.PerShard)
		if retries > 0 {
			rec.reasons |= reasonRetried
		}
		if hedges > 0 {
			rec.reasons |= reasonHedged
		}
	}

	level, msg := slog.LevelInfo, "query"
	if rec.reasons&reasonSlow != 0 {
		level, msg = slog.LevelWarn, "slow query"
	}
	if s.log.Enabled(ctx, level) {
		s.log.LogAttrs(ctx, level, msg, rec.attrs()...)
	}
	if s.rec != nil {
		s.met.retain(rec.reasons)
		if s.rec.add(rec) {
			s.met.traceEvicted.Add(1)
		}
	}
}

// countExtraAttempts tallies the retries and hedges behind a sharded
// query's answer.
func countExtraAttempts(legs []search.ShardStats) (retries, hedges int) {
	for i := range legs {
		for _, a := range legs[i].Attempts {
			if a.Attempt == 0 {
				continue
			}
			if a.Hedge {
				hedges++
			} else {
				retries++
			}
		}
	}
	return retries, hedges
}

// attrs renders the record's log line: ids, query shape, outcome, the
// stage split and, behind a coordinator, one group per shard leg — enough
// to debug the query from the log alone, without a sampled trace.
func (q *queryRecord) attrs() []slog.Attr {
	attrs := append(make([]slog.Attr, 0, 16),
		slog.String("request_id", q.RequestID),
		slog.String("trace_id", q.tc.TraceIDString()),
		slog.String("endpoint", q.Endpoint),
		slog.Bool("sampled", q.tc.Sampled),
		slog.Duration("duration", time.Duration(q.DurationNS)),
		slog.Float64("theta", q.Theta),
		slog.Int("num_tokens", q.NumTokens),
	)
	st := q.Stats
	if st == nil {
		return append(attrs, slog.String("error", q.Err))
	}
	d := st.Stages
	attrs = append(attrs,
		slog.Int("matches", st.Matches),
		slog.Int64("io_bytes", st.IOBytes),
		slog.Duration("io", time.Duration(st.IOTimeNS)),
		slog.Duration("sketch", d.Sketch),
		slog.Duration("plan", d.Plan),
		slog.Duration("gather", d.Gather),
		slog.Duration("count", d.Count),
		slog.Duration("merge", d.Merge),
		slog.Duration("verify", d.Verify),
	)
	if st.ShardsTotal == 0 {
		return attrs
	}
	retries, hedges := countExtraAttempts(st.PerShard)
	attrs = append(attrs,
		slog.Int("shards_total", st.ShardsTotal),
		slog.Int("shards_answered", st.ShardsAnswered),
		slog.Bool("partial", st.ShardsAnswered < st.ShardsTotal),
		slog.Int("shard_retries", retries),
		slog.Int("shard_hedges", hedges),
	)
	for i := range st.PerShard {
		ps := &st.PerShard[i]
		ga := append(make([]slog.Attr, 0, 5),
			slog.String("name", ps.Shard),
			slog.Bool("answered", ps.Answered),
			slog.Duration("total", ps.Total),
			slog.Int("attempts", len(ps.Attempts)),
		)
		if ps.Err != "" {
			ga = append(ga, slog.String("err", ps.Err))
		}
		attrs = append(attrs, slog.Attr{Key: "shard_" + strconv.Itoa(i), Value: slog.GroupValue(ga...)})
	}
	return attrs
}

// traceView is the GET /debug/trace/{request_id} body: the record with
// its ids and reasons rendered, and its assembled cross-process flight
// in place of its flat span list.
type traceView struct {
	*queryRecord
	TraceID string           `json:"trace_id"`
	Sampled bool             `json:"sampled"`
	Reasons []string         `json:"reasons"`
	Spans   []obs.FlightSpan `json:"spans"`
}

// traceSummary is the listing row GET /debug/trace/ returns.
type traceSummary struct {
	RequestID  string   `json:"request_id"`
	Endpoint   string   `json:"endpoint"`
	DurationNS int64    `json:"duration_ns"`
	Reasons    []string `json:"reasons"`
}

// recorder is the bounded store behind both debug endpoints: one lock,
// one capacity, three views.
//
//   - slowest: the slowest executed queries since start (min-replacement,
//     so a burst of fast traffic never evicts a real outlier);
//   - recent: a ring of the latest executed queries;
//   - retained: the latest records with a retention reason, oldest first.
//
// In retained, head-sampled records without a tail reason (error, slow,
// partial, retried, hedged) rank below those with one: a sampling flood
// cannot evict the one query that timed out, which is the tail-based
// guarantee, and unsampled traffic cannot evict a sampled trace. A
// record may sit in several views; lookups scan them (capacity is
// small), so there is no id index to keep in step.
type recorder struct {
	mu         sync.Mutex
	capacity   int
	slowest    []queryRecord // guarded by mu
	recent     []queryRecord // guarded by mu
	recentNext int           // guarded by mu; the recent slot overwritten next once full
	retained   []queryRecord // guarded by mu
}

// newRecorder returns a recorder with capacity records per view; 0
// selects the default, negative disables the recorder (nil).
func newRecorder(capacity int) *recorder {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultRecorderEntries
	}
	return &recorder{capacity: capacity}
}

// sampledOnly reports whether the record's one reason is head sampling.
func (q queryRecord) sampledOnly() bool { return q.reasons == reasonSampled }

// add files rec in its views and reports whether a record with a tail
// reason was evicted to make room. Failed queries enter only retained.
func (l *recorder) add(rec queryRecord) (evicted bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Err == "" {
		if len(l.recent) < l.capacity {
			l.recent = append(l.recent, rec)
		} else {
			l.recent[l.recentNext] = rec
			l.recentNext = (l.recentNext + 1) % l.capacity
		}
		if len(l.slowest) < l.capacity {
			l.slowest = append(l.slowest, rec)
		} else if i := l.fastestLocked(); rec.DurationNS > l.slowest[i].DurationNS {
			l.slowest[i] = rec
		}
	}
	if rec.reasons == 0 {
		return false
	}
	if len(l.retained) == l.capacity {
		// Full: the oldest sampled-only record makes room. With none
		// left, a tail record evicts the oldest record and a
		// sampled-only one is not kept.
		i := slices.IndexFunc(l.retained, queryRecord.sampledOnly)
		if i < 0 {
			if rec.sampledOnly() {
				return false
			}
			i, evicted = 0, true
		}
		l.retained = slices.Delete(l.retained, i, i+1)
	}
	l.retained = append(l.retained, rec)
	return evicted
}

// fastestLocked returns the index of the fastest record in the full
// slowest view; the caller holds l.mu (the Locked suffix is the
// guardedby callee-side convention).
func (l *recorder) fastestLocked() int {
	mi := 0
	for i := 1; i < len(l.slowest); i++ {
		if l.slowest[i].DurationNS < l.slowest[mi].DurationNS {
			mi = i
		}
	}
	return mi
}

// views returns the slowest view (descending by duration) and the
// recent view (newest first).
func (l *recorder) views() (slowest, recent []queryRecord) {
	l.mu.Lock()
	slowest = append(make([]queryRecord, 0, len(l.slowest)), l.slowest...)
	n := len(l.recent)
	recent = make([]queryRecord, n)
	for i := range recent {
		recent[i] = l.recent[(l.recentNext-1-i+n)%n]
	}
	l.mu.Unlock()
	sort.Slice(slowest, func(i, j int) bool { return slowest[i].DurationNS > slowest[j].DurationNS })
	return slowest, recent
}

// index lists the retained view for GET /debug/trace/, newest first,
// the records with a tail reason ahead of the sampled-only ones.
func (l *recorder) index() []traceSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]traceSummary, 0, len(l.retained))
	for _, sampled := range [...]bool{false, true} {
		for i := len(l.retained) - 1; i >= 0; i-- {
			if q := &l.retained[i]; q.sampledOnly() == sampled {
				out = append(out, traceSummary{q.RequestID, q.Endpoint, q.DurationNS, q.reasons.names()})
			}
		}
	}
	return out
}

// counts returns the sizes of the slowest and retained views, the
// /metrics gauges.
func (l *recorder) counts() (slowest, retained int) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.slowest), len(l.retained)
}

// get returns the newest held record for a request id.
func (l *recorder) get(id string) (rec queryRecord, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, view := range [...][]queryRecord{l.retained, l.recent, l.slowest} {
		for i := range view {
			if view[i].RequestID == id && (!ok || view[i].Start.After(rec.Start)) {
				rec, ok = view[i], true
			}
		}
	}
	return rec, ok
}
