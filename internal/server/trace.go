package server

import (
	rand "math/rand/v2"
	"net/http"
	"strings"
	"time"

	"ndss/internal/obs"
	"ndss/internal/search"
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

// assembleFlight draws one query's trace tree from its record: the
// legs and replica attempts a coordinator logged, and the stage times of
// this process and of every answering shard, each laid end to end as
// six stage spans:
//
//	endpoint (root, the query's wall time)
//	├── shard (one leg per range, at its fan-out offset)
//	│   ├── shard_attempt / shard_retry / shard_hedge (one per replica attempt)
//	│   │   └── sketch/plan/gather/count/merge/verify (the winner's stage times)
//	└── shard_merge (the coordinator's own merge time)
//
// For unsharded backends the stage spans hang directly off the root; a
// failed query is its root alone, flagged failed. The backend's clock
// (the fan-out's, behind a coordinator) is placed so its Total ends
// where the root ends. A leg's stage spans start at the attempt that
// carried them, so they nest within, and sum within, the leg latency.
func assembleFlight(q *queryRecord) []obs.FlightSpan {
	var f obs.Flight
	dur := time.Duration(q.DurationNS)
	st := q.Stats
	if st == nil {
		f.Add("", q.tc.SpanIDString(), q.Endpoint, 0, dur, obs.Attr{Key: "failed", Val: 1})
		return f.Spans()
	}
	root := f.Add("", q.tc.SpanIDString(), q.Endpoint, 0, dur)
	base := max(dur-st.Total, 0)
	if len(st.PerShard) == 0 {
		addStages(&f, root, base, st.StageTimes)
		return f.Spans()
	}
	merge := st.StageTimes.Merge
	for i := range st.PerShard {
		ps := &st.PerShard[i]
		legAttrs := []obs.Attr{{Key: "shard", Val: int64(i)}}
		if ps.IOBytes > 0 {
			legAttrs = append(legAttrs, obs.Attr{Key: "io_bytes", Val: ps.IOBytes})
		}
		legStart := base + ps.Start
		leg := f.Add(root, ps.SpanID, "shard", legStart, ps.Total, legAttrs...)
		// The leg's stage spans belong under the attempt that carried
		// them: the winner when a replica set logged attempts, the leg
		// itself otherwise (single-replica shards).
		carrier, carrierStart := leg, legStart
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
			id := f.Add(leg, a.SpanID, name, legStart+a.Start, a.Dur, attrs...)
			if a.Err == "" {
				carrier, carrierStart = id, legStart+a.Start
			}
		}
		if ps.Answered {
			addStages(&f, carrier, carrierStart, ps.StageTimes)
			merge -= ps.StageTimes.Merge
		}
	}
	// The coordinator's merge time is what its Merge holds beyond the
	// answering legs' own.
	f.Add(root, "", "shard_merge", base+st.Total-merge, merge)
	return f.Spans()
}

// addStages adds the six stage spans of t under parent, end to end from
// at.
func addStages(f *obs.Flight, parent string, at time.Duration, t search.StageTimes) {
	for i, d := range t.Durations() {
		f.Add(parent, "", search.StageNames[i], at, d)
		at += d
	}
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
