// Package wire is the HTTP JSON contract of the serving tier, defined
// once: it declares the messages — Request, Response, Error and Health
// — and the query codec. The results they carry are the engine's own
// types (search.Match, search.Stats, index.Meta, and search.Plan as the
// /explain body), which hold their served JSON names, so a result
// crosses every hop without a copy. internal/server encodes these
// messages and shard.HTTPShard decodes the same ones, so a shard leg
// and a public response cannot drift apart. Field names and
// declaration order are the public format and are pinned byte for
// byte by this package's golden test. Request and Response, which
// cross every hop of a sharded query, also have a hand-written codec
// (codec.go) that encoding/json is the reference for.
//
// wire is a leaf: it imports only search and index.
package wire

import (
	"ndss/internal/index"
	"ndss/internal/search"
)

// Request is the JSON body of /search, /search/topk and /explain.
type Request struct {
	Tokens []uint32 `json:"tokens"`
	Theta  float64  `json:"theta"`

	MinLength    int  `json:"min_length,omitempty"`
	PrefixFilter bool `json:"prefix_filter,omitempty"`
	Verify       bool `json:"verify,omitempty"`

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
// server's /search. KeepRects does not cross the wire: rectangles are
// never served.
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

// Response is the 200 body of /search and /search/topk. Its matches
// and stats are the engine's own types, which carry the served JSON
// names; the fields they never serve are tagged json:"-".
type Response struct {
	Matches []search.Match `json:"matches"`
	Stats   search.Stats   `json:"stats"`
	Cached  bool           `json:"cached,omitempty"`
}

// Error is the body of every non-200 answer.
type Error struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
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
