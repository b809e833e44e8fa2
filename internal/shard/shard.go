// Package shard distributes near-duplicate search across N shard
// backends: the scatter–gather layer that takes the repo from "a
// library with a search endpoint" to the paper's 10¹²-token serving
// story. A Coordinator fans each query out to every shard, merges the
// per-shard results through the same ordering the single-index path
// produces (byte-identical, including top-k tie order), and enforces a
// global result under partial-result deadlines: a shard that misses its
// per-shard budget is skipped and flagged in Stats rather than failing
// the query.
//
// Two transports implement ShardClient:
//
//   - Local: an in-process shard wrapping an opened engine (one index
//     directory per shard). Fan-out is a goroutine per shard.
//   - HTTPShard: a remote ndss-serve instance answering POST /search
//     (a top-k leg carries its Limit as the request's n), with health
//     checks and
//     per-shard admission. Remote shards hot-reload themselves through
//     their own refcounted backend handles; the coordinator just keeps
//     querying.
//
// Shards partition the corpus by document range: shard i's local text
// ids [0, NumTexts_i) map to the global range [base_i, base_i +
// NumTexts_i), with bases assigned cumulatively in shard order — the
// same offset scheme index.MergeShards uses, so a sharded corpus and
// its single merged index agree on every text id.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"

	"ndss/internal/index"
	"ndss/internal/search"
)

// Backend is the serving tier's one query surface: what internal/server
// serves over HTTP, what Local wraps as a shard, and what a Coordinator
// itself implements. *ndss.DB satisfies it; tests substitute slow
// or failing implementations. A Backend that also implements io.Closer
// is closed when its owner (a server reload, a Local) is done with it.
//
// The serving tier never sketches a query: SearchContext hands the raw
// tokens on, and only the engine that searches them sketches them.
type Backend interface {
	SearchContext(ctx context.Context, query []uint32, opts search.Options) ([]search.Match, *search.Stats, error)
	Meta() index.Meta
	// BuildID identifies the index build behind this backend, surfaced
	// in /healthz and /metrics so operators can confirm a reload took.
	BuildID() string
}

// ShardClient is one shard as the coordinator sees it: a Backend with a
// name, a health check and a Close. SearchContext takes the context
// first and forwards it into the shard's own pipeline (or the network
// request), so a coordinator deadline cancels shard work promptly.
//
// Implementations must be safe for concurrent use: the coordinator
// issues one call per in-flight query to every shard.
type ShardClient interface {
	Backend
	// Name identifies the shard in metrics labels, trace spans, and
	// Stats.PerShard (its index directory or URL).
	Name() string
	// CheckHealth verifies the shard is reachable and serving, and for
	// remote shards refreshes the cached build id.
	CheckHealth(ctx context.Context) error
	Close() error
}

// MixedShardsError is returned by NewCoordinator when the shard set
// disagrees on the index options that must be uniform for results to be
// meaningful: the hash family (K, Seed) and the length threshold T.
type MixedShardsError struct {
	Shard string // the first disagreeing shard
	Want  index.Meta
	Got   index.Meta
}

func (e *MixedShardsError) Error() string {
	return fmt.Sprintf("shard: %s has k=%d seed=%d t=%d, coordinator requires k=%d seed=%d t=%d",
		e.Shard, e.Got.K, e.Got.Seed, e.Got.T, e.Want.K, e.Want.Seed, e.Want.T)
}

// Local is an in-process shard: a Backend (usually *ndss.DB over
// one shard's index directory) behind the ShardClient surface.
type Local struct {
	Backend
	name string
}

// NewLocal wraps an opened backend as a shard named name (its index
// directory, by convention).
func NewLocal(name string, b Backend) *Local {
	return &Local{Backend: b, name: name}
}

func (l *Local) Name() string { return l.name }

// CheckHealth reports nil: an in-process shard is healthy as long as
// its backend is open.
func (l *Local) CheckHealth(ctx context.Context) error {
	return ctx.Err()
}

// Close closes the wrapped backend when it is closable.
func (l *Local) Close() error {
	if c, ok := l.Backend.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// shardErrString renders a shard-local failure for Stats.PerShard, the
// reason a shard was skipped: a per-shard deadline reads "deadline
// exceeded", anything else its error text.
func shardErrString(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline exceeded"
	}
	return err.Error()
}
