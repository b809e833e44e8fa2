package server

import (
	rand "math/rand/v2"
	"net/http"
	"strings"
	"time"

	"ndss/internal/obs"
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

// assembleFlight grafts one query's spans — this process's own, plus
// whatever each shard leg shipped back — into a single tree:
//
//	endpoint (root, the query's wall time)
//	├── shard (one leg per range, at its fan-out offset)
//	│   ├── shard_attempt / shard_retry / shard_hedge (one per replica attempt)
//	│   │   └── sketch/plan/gather/count/merge/verify… (the winner's remote spans)
//	└── shard_merge (the coordinator's merge tail)
//
// For unsharded backends the engine's spans hang directly off the
// root; a failed query is its root alone, flagged failed. Remote spans
// keep their own durations and attrs (io_bytes included) and are
// shifted by their carrier's start onto the query's time axis, so stage
// durations nest within — and sum within — the leg latency that carried
// them.
func assembleFlight(q *queryRecord) []obs.FlightSpan {
	var f obs.Flight
	dur := time.Duration(q.DurationNS)
	st := q.Stats
	if st == nil {
		f.Add("", q.tc.SpanIDString(), q.Endpoint, 0, dur, obs.Attr{Key: "failed", Val: 1})
		return f.Spans()
	}
	root := f.Add("", q.tc.SpanIDString(), q.Endpoint, 0, dur)
	if st.ShardsTotal == 0 {
		f.Graft(root, q.Spans, 0)
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
	for i := range q.Spans {
		if q.Spans[i].Name == "shard_merge" {
			f.Add(root, "", "shard_merge", q.Spans[i].Start, q.Spans[i].Dur)
		}
	}
	return f.Spans()
}

// handleTrace serves the flight recorder by request id: GET
// /debug/trace/{request_id} returns a held query's record with its
// cross-process trace tree assembled; GET /debug/trace/ lists the
// records that carry a retention reason.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, r, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.rec == nil {
		s.writeError(w, r, http.StatusNotImplemented, "flight recorder disabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		writeJSON(w, http.StatusOK, map[string]any{"traces": s.rec.index()})
		return
	}
	rec, ok := s.rec.get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "no held record for request id "+id)
		return
	}
	writeJSON(w, http.StatusOK, traceView{
		queryRecord: &rec,
		TraceID:     rec.tc.TraceIDString(),
		Sampled:     rec.tc.Sampled,
		Reasons:     rec.reasons.names(),
		Spans:       assembleFlight(&rec),
	})
}
