package server

import (
	"fmt"
	"log/slog"
	rand "math/rand/v2"
	"net/http"
	"strings"
	"time"

	"ndss/internal/obs"
	"ndss/internal/search"
	"ndss/internal/wire"
)

// sampleTrace decides head-sampling for a root trace minted at this
// serving edge. Shard-side processes never call this for forwarded
// queries — they inherit the bit from the incoming traceparent.
func (s *Server) sampleTrace() bool {
	rate := s.cfg.TraceSampleRate
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return rand.Float64() < rate
}

// assembleFlight grafts one executed query's spans — this process's
// own, plus whatever each shard leg shipped back — into a single tree:
//
//	endpoint (root, the query's wall time)
//	├── shard (one leg per range, at its fan-out offset)
//	│   ├── shard_attempt / shard_retry / shard_hedge (one per replica attempt)
//	│   │   └── sketch/plan/gather/count/merge/verify… (the winner's remote spans)
//	└── shard_merge (the coordinator's merge tail)
//
// For unsharded backends the engine's spans hang directly off the
// root. Remote spans keep their own durations and attrs (io_bytes
// included) and are shifted by their carrier's start onto the query's
// time axis, so stage durations nest within — and sum within — the
// leg latency that carried them.
func assembleFlight(tc obs.TraceContext, ep string, dur time.Duration, st *search.Stats) []obs.FlightSpan {
	var f obs.Flight
	root := f.Add("", tc.SpanIDString(), ep, 0, dur)
	if st == nil {
		return f.Spans()
	}
	if st.ShardsTotal == 0 {
		f.Graft(root, st.Spans, 0)
		return f.Spans()
	}
	for i := range st.PerShard {
		ps := &st.PerShard[i]
		legAttrs := []obs.Attr{{Key: "shard", Val: int64(i)}}
		if ps.IOBytes > 0 {
			legAttrs = append(legAttrs, obs.Attr{Key: "io_bytes", Val: ps.IOBytes})
		}
		leg := f.Add(root, ps.SpanID, "shard", ps.Start, ps.Total, legAttrs...)
		// The leg's remote spans belong under the attempt that carried
		// them: the winner when a replica set logged attempts, the leg
		// itself otherwise (single-replica shards).
		carrier, carrierStart := leg, ps.Start
		for _, a := range ps.Attempts {
			name := "shard_attempt"
			if a.Hedge {
				name = "shard_hedge"
			} else if a.Attempt > 0 {
				name = "shard_retry"
			}
			attrs := []obs.Attr{
				{Key: "attempt", Val: int64(a.Attempt)},
				{Key: "replica", Val: int64(a.ReplicaIdx)},
			}
			if a.Err != "" {
				attrs = append(attrs, obs.Attr{Key: "failed", Val: 1})
			}
			id := f.Add(leg, a.SpanID, name, ps.Start+a.Start, a.Dur, attrs...)
			if a.Err == "" {
				carrier, carrierStart = id, ps.Start+a.Start
			}
		}
		f.Graft(carrier, ps.Spans, carrierStart)
	}
	// The coordinator's own merge tail (its per-leg spans are already
	// represented above, with their wire span ids).
	for i := range st.Spans {
		if st.Spans[i].Name == "shard_merge" {
			f.Add(root, "", "shard_merge", st.Spans[i].Start, st.Spans[i].Dur)
		}
	}
	return f.Spans()
}

// storeTrace records a retained trace and its per-reason counters.
func (s *Server) storeTrace(e traceEntry) {
	if s.trace == nil {
		return
	}
	for _, reason := range e.Reasons {
		s.met.retainTrace(reason)
	}
	if s.trace.record(e) {
		s.met.traceEvicted.Add(1)
	}
}

// recordErrorTrace retains a root-only trace for an executed query
// that failed (timeout, cancellation, rejected input): tail-based
// retention must cover exactly the queries with no stats to show.
func (s *Server) recordErrorTrace(r *http.Request, ep endpoint, start time.Time, err error) {
	if s.trace == nil {
		return
	}
	dur := time.Since(start)
	tc, _ := obs.TraceFromContext(r.Context())
	reasons := []string{"error"}
	if tc.Sampled {
		reasons = append(reasons, "sampled")
	}
	var f obs.Flight
	f.Add("", tc.SpanIDString(), ep.String(), 0, dur, obs.Attr{Key: "failed", Val: 1})
	s.storeTrace(traceEntry{
		RequestID:  obs.RequestIDFromContext(r.Context()),
		TraceID:    tc.TraceIDString(),
		Endpoint:   ep.String(),
		Start:      start,
		DurationNS: int64(dur),
		Sampled:    tc.Sampled,
		Reasons:    reasons,
		Err:        err.Error(),
		Spans:      f.Spans(),
	})
}

// wideEvent emits the one-line-per-query structured event: everything
// needed to debug the query from the log alone, ids included, without
// waiting for a trace to be sampled.
func (s *Server) wideEvent(r *http.Request, ep endpoint, req wire.Request, id string, tc obs.TraceContext, dur time.Duration, st *search.Stats, retries, hedges int) {
	d := st.StageTimes
	attrs := []slog.Attr{
		slog.String("request_id", id),
		slog.String("trace_id", tc.TraceIDString()),
		slog.String("endpoint", ep.String()),
		slog.Bool("sampled", tc.Sampled),
		slog.Duration("duration", dur),
		slog.Float64("theta", req.Theta),
		slog.Int("num_tokens", len(req.Tokens)),
		slog.Int("matches", st.Matches),
		slog.Int64("io_bytes", st.IOBytes),
		slog.Duration("io", st.IOTime),
		slog.Duration("sketch", d.Sketch),
		slog.Duration("plan", d.Plan),
		slog.Duration("gather", d.Gather),
		slog.Duration("count", d.Count),
		slog.Duration("merge", d.Merge),
		slog.Duration("verify", d.Verify),
	}
	if st.ShardsTotal > 0 {
		attrs = append(attrs,
			slog.Int("shards_total", st.ShardsTotal),
			slog.Int("shards_answered", st.ShardsAnswered),
			slog.Bool("partial", st.Partial()),
			slog.Int("shard_retries", retries),
			slog.Int("shard_hedges", hedges),
		)
		for i := range st.PerShard {
			ps := &st.PerShard[i]
			ga := []any{
				slog.String("name", ps.Shard),
				slog.Bool("answered", ps.Answered),
				slog.Duration("total", ps.Total),
				slog.Int("attempts", len(ps.Attempts)),
			}
			if ps.Err != "" {
				ga = append(ga, slog.String("err", ps.Err))
			}
			attrs = append(attrs, slog.Group(fmt.Sprintf("shard_%d", i), ga...))
		}
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "query", attrs...)
}

// handleTrace serves the trace store: GET /debug/trace/{request_id}
// returns the assembled cross-process trace tree of a retained query;
// GET /debug/trace/ lists what is retained.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.trace == nil {
		s.writeError(w, r, http.StatusNotImplemented, "trace store disabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		list := s.trace.index()
		if list == nil {
			list = []traceSummary{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": list})
		return
	}
	e, ok := s.trace.get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "no retained trace for request id "+id)
		return
	}
	writeJSON(w, http.StatusOK, e)
}
