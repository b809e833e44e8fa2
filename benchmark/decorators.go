package main

import (
	"context"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"ndss/internal/obs"
	"ndss/internal/search"
	"ndss/internal/server"
	"ndss/internal/shard"
)

// The timing decorators of the traced run. Each wraps one public seam of
// the program and records a span around the calls through it. They live
// here, not in the program, and the untraced run installs none of them.

// Span names. A leg, shard handler or shard engine carries its shard's
// number as a suffix.
const (
	spanClient      = "client"       // the request as the benchmark's client sees it
	spanEdgeHTTP    = "edge.http"    // ServeHTTP of the server clients talk to
	spanEdgeBackend = "edge.backend" // that server's Backend: coordinator or engine
	spanLeg         = "leg"          // one ShardClient call of the coordinator
	spanShardHTTP   = "shard.http"   // ServeHTTP of a shard's server
	spanShardEngine = "shard.engine" // a shard server's engine
	spanEngine      = "engine"       // the in-process engine of query-hit and query-miss
	spanIngest      = "ingest"       // one Server.Ingest call of the benchmark
	spanIngester    = "ingester"     // the Config.Ingester closure
	spanReloader    = "reloader"     // the Config.Reloader closure
	spanCompactor   = "compactor"    // the Config.Compactor closure
)

func numbered(name string, i int) string { return name + strconv.Itoa(i) }

// tracedHandler records a span around ServeHTTP. The span's request id
// is the X-Request-ID the caller sent, which is also the id the server
// adopts, so client, edge and shard spans of one query share it.
type tracedHandler struct {
	next         http.Handler
	rec          *recorder
	name, parent string
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.rec.now()
	h.next.ServeHTTP(w, r)
	h.rec.add(h.name, r.Header.Get(obs.HeaderRequestID), h.parent, start)
}

// engineCall is what one traced Backend call returned: the Stats, which
// are the program's own public account of the query, and how many texts
// it reported a match in.
type engineCall struct {
	stats search.Stats
	texts int
}

// callLog keeps the engineCall of every traced Backend call. The
// backends a reload opens share the log of the one they replace.
type callLog struct {
	mu    sync.Mutex
	calls []engineCall // guarded by mu
}

func (l *callLog) snapshot() []engineCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]engineCall(nil), l.calls...)
}

// tracedBackend records a span around every query a server.Backend
// answers.
type tracedBackend struct {
	server.Backend
	rec          *recorder
	name, parent string
	log          *callLog
}

func (b *tracedBackend) SearchContext(ctx context.Context, q []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	start := b.rec.now()
	ms, st, err := b.Backend.SearchContext(ctx, q, opts)
	b.rec.add(b.name, obs.RequestIDFromContext(ctx), b.parent, start)
	if err == nil && st != nil {
		texts := 0
		for i, m := range ms {
			if i == 0 || m.TextID != ms[i-1].TextID { // matches are ordered by text
				texts++
			}
		}
		b.log.mu.Lock()
		b.log.calls = append(b.log.calls, engineCall{stats: *st, texts: texts})
		b.log.mu.Unlock()
	}
	return ms, st, err
}

// SegmentCount forwards the optional method the server looks for on its
// Backend to decide on a background compaction; hiding it would switch
// compaction off in the traced run.
func (b *tracedBackend) SegmentCount() int {
	if sc, ok := b.Backend.(interface{ SegmentCount() int }); ok {
		return sc.SegmentCount()
	}
	return 1
}

// Close forwards to the wrapped backend, which a reload closes when it
// retires it.
func (b *tracedBackend) Close() error {
	if c, ok := b.Backend.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// tracedShard records a span around every query leg of the coordinator.
type tracedShard struct {
	shard.ShardClient
	rec          *recorder
	name, parent string
}

func (s tracedShard) SearchContext(ctx context.Context, q []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	start := s.rec.now()
	ms, st, err := s.ShardClient.SearchContext(ctx, q, opts)
	s.rec.add(s.name, obs.RequestIDFromContext(ctx), s.parent, start)
	return ms, st, err
}

// mutationTracer wraps the Ingester, Reloader and Compactor closures.
// They take no context, so their spans carry a running number instead
// of a request id, and are matched to Server.Ingest calls by time. It
// also adds up, outside the spans, the bytes the mutations wrote into
// the index directory and the bytes of user tokens ingested.
type mutationTracer struct {
	rec     *recorder
	dir     string
	seq     atomic.Int64
	written atomic.Int64 // bytes of new segments plus bytes of compacted indexes
	user    atomic.Int64 // 4 bytes per ingested token
}

// dirSize sums the sizes of the files under dir.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // a file that vanished mid-walk counts as nothing
	})
	return total
}

func (m *mutationTracer) span(name string, start int64) {
	m.rec.add(name, "m"+strconv.FormatInt(m.seq.Add(1), 10), "", start)
}

func (m *mutationTracer) ingester(f func([][]uint32) (string, error)) func([][]uint32) (string, error) {
	return func(texts [][]uint32) (string, error) {
		before := dirSize(m.dir)
		start := m.rec.now()
		id, err := f(texts)
		m.span(spanIngester, start)
		m.written.Add(dirSize(m.dir) - before)
		for _, t := range texts {
			m.user.Add(4 * int64(len(t)))
		}
		return id, err
	}
}

func (m *mutationTracer) reloader(f func() (server.Backend, error)) func() (server.Backend, error) {
	return func() (server.Backend, error) {
		start := m.rec.now()
		b, err := f()
		m.span(spanReloader, start)
		return b, err
	}
}

func (m *mutationTracer) compactor(f func() error) func() error {
	return func() error {
		start := m.rec.now()
		err := f()
		m.span(spanCompactor, start)
		m.written.Add(dirSize(m.dir)) // a compaction rewrites the whole index
		return err
	}
}
