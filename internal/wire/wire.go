// Package wire is the HTTP JSON contract of the serving tier, defined
// once: internal/server encodes these types, shard.HTTPShard decodes
// the same ones, so a shard leg and a public response cannot drift
// apart. Field names and declaration order are the public format and
// are pinned byte for byte by this package's golden test. Request and
// Response, which cross every hop of a sharded query, also have a
// hand-written codec (codec.go) that encoding/json is the reference for.
//
// wire is a leaf: it imports only search, obs and index.
package wire

import (
	"time"

	"ndss/internal/index"
	"ndss/internal/obs"
	"ndss/internal/search"
)

// Request is the JSON body of /search, /search/topk and /explain.
type Request struct {
	Tokens []uint32 `json:"tokens"`
	Theta  float64  `json:"theta"`

	MinLength    int  `json:"min_length,omitempty"`
	PrefixFilter bool `json:"prefix_filter,omitempty"`
	// LongListThreshold and CostBased are accepted and ignored, so the
	// server's DisallowUnknownFields does not refuse old clients.
	LongListThreshold int  `json:"long_list_threshold,omitempty"`
	CostBased         bool `json:"cost_based,omitempty"`
	Verify            bool `json:"verify,omitempty"`

	// TimeoutMS bounds this request's execution; 0 selects the server
	// default.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// N is search.Options.Limit: keep the N best matches (0 = all).
	// /search/topk requires it positive.
	N int `json:"n,omitempty"`
	// FloorTheta is /search/topk's threshold, read there in place of
	// Theta (0 selects the server's default floor).
	FloorTheta float64 `json:"floor_theta,omitempty"`
}

// NewRequest is the request that runs query under opts on a remote
// server's /search. KeepRects and Trace do not cross the wire:
// rectangles are never served, and span shipping follows the
// traceparent header.
func NewRequest(query []uint32, opts search.Options) Request {
	return Request{
		Tokens:       query,
		Theta:        opts.Theta,
		MinLength:    opts.MinLength,
		PrefixFilter: opts.PrefixFilter,
		Verify:       opts.Verify,
		N:            opts.Limit,
	}
}

// Options is the inverse of NewRequest.
func (r Request) Options() search.Options {
	return search.Options{
		Theta:        r.Theta,
		MinLength:    r.MinLength,
		PrefixFilter: r.PrefixFilter,
		Verify:       r.Verify,
		Limit:        r.N,
	}
}

// Match is search.Match on the wire (Rects are never served).
type Match struct {
	TextID     uint32  `json:"text_id"`
	Start      int32   `json:"start"`
	End        int32   `json:"end"`
	Collisions int     `json:"collisions"`
	EstJaccard float64 `json:"est_jaccard"`
	Jaccard    float64 `json:"jaccard,omitempty"`
}

// Stats is search.Stats on the wire. Field names are additionally
// pinned by the server's TestStatsWireFormatGolden.
type Stats struct {
	K          int               `json:"k"`
	Beta       int               `json:"beta"`
	ShortLists int               `json:"short_lists"`
	LongLists  int               `json:"long_lists"`
	Candidates int               `json:"candidates"`
	Probed     int               `json:"probed"`
	Matches    int               `json:"matches"`
	IOBytes    int64             `json:"io_bytes"`
	IOTimeNS   int64             `json:"io_time_ns"`
	CPUTimeNS  int64             `json:"cpu_time_ns"`
	TotalNS    int64             `json:"total_ns"`
	Stages     search.StageTimes `json:"stages"`

	// Scatter–gather attribution, present only for sharded backends.
	// shards_answered < shards_total flags a partial result.
	ShardsTotal    int                 `json:"shards_total,omitempty"`
	ShardsAnswered int                 `json:"shards_answered,omitempty"`
	PerShard       []search.ShardStats `json:"per_shard,omitempty"`

	// Spans is the answering process's own span list, present only when
	// the request's trace context carried the sampling bit — it is how
	// a shard ships its stage spans (io_bytes attrs included) back to
	// the coordinator for flight assembly.
	Spans []obs.Span `json:"spans,omitempty"`
}

// Response is the 200 body of /search and /search/topk.
type Response struct {
	Matches []Match `json:"matches"`
	Stats   Stats   `json:"stats"`
	Cached  bool    `json:"cached,omitempty"`
}

// NewResponse converts one executed query's result. Stats.Spans is
// left empty: the span list ships only on sampled traces, so attaching
// st.Spans is the caller's decision.
func NewResponse(matches []search.Match, st *search.Stats) Response {
	out := make([]Match, len(matches))
	for i, m := range matches {
		out[i] = Match{
			TextID: m.TextID, Start: m.Start, End: m.End,
			Collisions: m.Collisions, EstJaccard: m.EstJaccard, Jaccard: m.Jaccard,
		}
	}
	return Response{Matches: out, Stats: Stats{
		K: st.K, Beta: st.Beta, ShortLists: st.ShortLists, LongLists: st.LongLists,
		Candidates: st.Candidates, Probed: st.Probed, Matches: st.Matches,
		IOBytes: st.IOBytes, IOTimeNS: int64(st.IOTime), CPUTimeNS: int64(st.CPUTime),
		TotalNS: int64(st.Total), Stages: st.StageTimes,
		ShardsTotal: st.ShardsTotal, ShardsAnswered: st.ShardsAnswered,
		PerShard: st.PerShard,
	}}
}

// Result is the inverse of NewResponse, spans included.
func (r Response) Result() ([]search.Match, *search.Stats) {
	matches := make([]search.Match, len(r.Matches))
	for i, m := range r.Matches {
		matches[i] = search.Match{
			TextID: m.TextID, Start: m.Start, End: m.End,
			Collisions: m.Collisions, EstJaccard: m.EstJaccard, Jaccard: m.Jaccard,
		}
	}
	ws := r.Stats
	return matches, &search.Stats{
		K: ws.K, Beta: ws.Beta, ShortLists: ws.ShortLists, LongLists: ws.LongLists,
		Candidates: ws.Candidates, Probed: ws.Probed, Matches: ws.Matches,
		IOBytes: ws.IOBytes, IOTime: time.Duration(ws.IOTimeNS),
		CPUTime: time.Duration(ws.CPUTimeNS), Total: time.Duration(ws.TotalNS),
		StageTimes:  ws.Stages,
		ShardsTotal: ws.ShardsTotal, ShardsAnswered: ws.ShardsAnswered,
		PerShard: ws.PerShard,
		Spans:    ws.Spans,
	}
}

// Error is the body of every non-200 answer.
type Error struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// Plan is the 200 body of /explain: search.Plan on the wire.
type Plan struct {
	Alpha   int    `json:"alpha"`
	Beta    int    `json:"beta"`
	Cutoff  int    `json:"cutoff"`
	Long    []bool `json:"long"`
	NumLong int    `json:"num_long"`
}

// NewPlan converts a deferral plan for the wire.
func NewPlan(p *search.Plan) Plan {
	return Plan{Alpha: p.Alpha, Beta: p.Beta, Cutoff: p.Cutoff, Long: p.Long, NumLong: p.NumLong}
}

// Health is the body of /healthz: status "ok" with a 200, or
// "shutting_down" with a 503. Index is how a coordinator learns a
// remote shard's K/Seed/T/NumTexts before the first query; it is a
// pointer so a client can tell a server too old to send it.
type Health struct {
	BuildID string      `json:"build_id"`
	Index   *index.Meta `json:"index"`
	Status  string      `json:"status"`
}
