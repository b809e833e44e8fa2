package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ndss/internal/core"
	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/obs"
	"ndss/internal/server"
	"ndss/internal/shard"
)

// match is one reported near-duplicate span, as a client sees it.
type match struct {
	TextID     uint32 `json:"text_id"`
	Start      int32  `json:"start"`
	End        int32  `json:"end"`
	Collisions int    `json:"collisions"`
}

// reply is the answer to one query op.
type reply struct {
	matches []match // valid until the target's next query
	status  int     // HTTP status; 200 from the in-process engine
	cached  bool
	partial bool  // a shard did not answer
	bytes   int   // response body size
	ioBytes int64 // Stats.IOBytes
}

// target is where the query client sends its ops. reqID is "" in the
// untraced run.
type target interface {
	query(reqID string, q int) (reply, error)
}

// engineTarget calls the engine in process.
type engineTarget struct {
	backend server.Backend
	queries [][]uint32
	buf     []match
}

func (t *engineTarget) query(reqID string, q int) (reply, error) {
	ctx := context.Background()
	if reqID != "" {
		ctx = obs.ContextWithRequestID(ctx, reqID)
	}
	ms, st, err := t.backend.SearchContext(ctx, t.queries[q], searchOpts)
	if err != nil {
		return reply{}, err
	}
	t.buf = t.buf[:0]
	for _, m := range ms {
		t.buf = append(t.buf, match{TextID: m.TextID, Start: m.Start, End: m.End, Collisions: m.Collisions})
	}
	return reply{matches: t.buf, status: http.StatusOK, ioBytes: st.IOBytes}, nil
}

// httpTarget posts to /search over loopback with one keep-alive
// connection. Request bodies are encoded once, during set-up.
type httpTarget struct {
	client *http.Client
	url    string
	bodies [][]byte
	buf    bytes.Buffer
	resp   searchResponse
}

// searchResponse is the part of the /search wire format the client
// reads.
type searchResponse struct {
	Matches []match `json:"matches"`
	Stats   struct {
		IOBytes        int64 `json:"io_bytes"`
		ShardsTotal    int   `json:"shards_total"`
		ShardsAnswered int   `json:"shards_answered"`
	} `json:"stats"`
	Cached bool `json:"cached"`
}

type searchRequest struct {
	Tokens       []uint32 `json:"tokens"`
	Theta        float64  `json:"theta"`
	PrefixFilter bool     `json:"prefix_filter"`
}

// encodeQuery is the /search request body of one query.
func encodeQuery(q []uint32) ([]byte, error) {
	return json.Marshal(searchRequest{Tokens: q, Theta: searchOpts.Theta, PrefixFilter: searchOpts.PrefixFilter})
}

func encodeBodies(queries [][]uint32) ([][]byte, error) {
	out := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := encodeQuery(q)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func (t *httpTarget) query(reqID string, q int) (reply, error) {
	body, status, err := t.post(reqID, t.bodies[q])
	if err != nil || status != http.StatusOK {
		return reply{status: status}, err
	}
	t.resp = searchResponse{Matches: t.resp.Matches[:0]}
	if err := json.Unmarshal(body, &t.resp); err != nil {
		return reply{status: status}, err
	}
	return reply{
		matches: t.resp.Matches, status: status, cached: t.resp.Cached,
		partial: t.resp.Stats.ShardsAnswered < t.resp.Stats.ShardsTotal,
		bytes:   len(body), ioBytes: t.resp.Stats.IOBytes,
	}, nil
}

// post returns the response body, valid until the next post.
func (t *httpTarget) post(reqID string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, t.url+"/search", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(obs.HeaderRequestID, reqID)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	t.buf.Reset()
	if _, err := t.buf.ReadFrom(resp.Body); err != nil {
		return nil, resp.StatusCode, err
	}
	return t.buf.Bytes(), resp.StatusCode, nil
}

// served is an index directory and the engine currently open on it. A
// server closes the engines it retires on reload, so only the last one
// opened is left for close.
type served struct {
	dir string
	// Set in the traced run only: every engine opened is wrapped.
	rec          *recorder
	name, parent string
	log          *callLog

	mu  sync.Mutex
	cur *core.Engine // guarded by mu
}

// open opens a fresh engine on the directory. It is the Reloader of the
// servers that ingest.
func (s *served) open() (server.Backend, error) {
	e, err := core.Open(s.dir, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.cur = e
	s.mu.Unlock()
	if s.rec != nil {
		return &tracedBackend{Backend: e, rec: s.rec, name: s.name, parent: s.parent, log: s.log}, nil
	}
	return e, nil
}

func (s *served) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur = nil
	return err
}

// mutable returns the config of a server that ingests into and compacts
// the directory. Every field but the three closures (and CompactAfter,
// which the caller may add) keeps its default.
func (s *served) mutable(mt *mutationTracer) server.Config {
	cfg := server.Config{
		Reloader: s.open,
		Ingester: func(texts [][]uint32) (string, error) {
			return index.Append(s.dir, corpus.New(texts))
		},
		Compactor: func() error { return index.Compact(s.dir) },
	}
	if mt != nil {
		cfg.Reloader = mt.reloader(cfg.Reloader)
		cfg.Ingester = mt.ingester(cfg.Ingester)
		cfg.Compactor = mt.compactor(cfg.Compactor)
	}
	return cfg
}

// stack is one serving topology, set up and ready for ops.
type stack struct {
	tgt    target
	ingest *server.Server  // takes this topology's Server.Ingest calls
	dirs   []string        // index directories
	logs   []*callLog      // engine call logs (traced run only)
	mt     *mutationTracer // of a churn topology (traced run only)
	builds []buildInfo     // one per index directory
	reopen func() error    // of a churn topology: after close, start again from the base index
	stops  []func() error  // run last to first by close
}

func (st *stack) onClose(f func() error) { st.stops = append(st.stops, f) }

func (st *stack) close() error {
	var errs []error
	for i := len(st.stops) - 1; i >= 0; i-- {
		errs = append(errs, st.stops[i]())
	}
	st.stops = nil
	return errors.Join(errs...)
}

// listen serves h on a loopback port until the returned stop is called.
// stop waits for in-flight requests and for the serving goroutine.
func listen(h http.Handler, begin func()) (url string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	stop = func() error {
		begin()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func newClient() (*http.Client, func() error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	return &http.Client{Transport: tr}, func() error { tr.CloseIdleConnections(); return nil }
}

// buildInfo is what building one index took.
type buildInfo struct {
	stats  *index.BuildStats
	wall   time.Duration
	texts  int
	tokens int64
}

func (st *stack) buildIndex(c *corpus.Corpus, dir string) error {
	t0 := time.Now()
	stats, err := index.Build(c, dir, buildOpts)
	if err != nil {
		return err
	}
	st.builds = append(st.builds, buildInfo{stats: stats, wall: time.Since(t0), texts: c.NumTexts(), tokens: c.TotalTokens()})
	return nil
}

// startEngine is the topology of query-hit and query-miss: one index,
// one engine, called in process.
func startEngine(dir string, c *corpus.Corpus, queries [][]uint32, rec *recorder) (*stack, error) {
	st := &stack{}
	sv := &served{dir: filepath.Join(dir, "idx"), rec: rec, name: spanEngine, parent: spanClient, log: &callLog{}}
	if err := st.buildIndex(c, sv.dir); err != nil {
		return nil, err
	}
	b, err := sv.open()
	if err != nil {
		return nil, err
	}
	st.onClose(sv.close)
	st.dirs = []string{sv.dir}
	st.logs = []*callLog{sv.log}
	st.tgt = &engineTarget{backend: b, queries: queries}
	return st, nil
}

// startSharded is the topology of serve-sharded: client, edge server,
// coordinator, one HTTP shard client and one shard server per shard,
// all over loopback. Shard i holds the i-th consecutive slice of c.
func startSharded(dir string, c *corpus.Corpus, shards int, queries [][]uint32, rec *recorder) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
		}
	}()
	clients := make([]shard.ShardClient, 0, shards)
	closeClients := true
	defer func() {
		if err != nil && closeClients {
			for _, cl := range clients {
				_ = cl.Close() // the set-up error is the one to report
			}
		}
	}()
	n := c.NumTexts()
	for i := 0; i < shards; i++ {
		lo, hi := i*n/shards, (i+1)*n/shards
		texts := make([][]uint32, 0, hi-lo)
		for id := lo; id < hi; id++ {
			texts = append(texts, c.Text(uint32(id)))
		}
		sv := &served{
			dir: filepath.Join(dir, fmt.Sprintf("shard%d", i)), rec: rec,
			name: numbered(spanShardEngine, i), parent: numbered(spanShardHTTP, i), log: &callLog{},
		}
		if err := st.buildIndex(corpus.New(texts), sv.dir); err != nil {
			return nil, err
		}
		b, err := sv.open()
		if err != nil {
			return nil, err
		}
		st.onClose(sv.close)
		st.dirs = append(st.dirs, sv.dir)
		st.logs = append(st.logs, sv.log)
		srv := server.New(b, server.Config{})
		var h http.Handler = srv
		if rec != nil {
			h = tracedHandler{next: srv, rec: rec, name: numbered(spanShardHTTP, i), parent: numbered(spanLeg, i)}
		}
		url, stop, err := listen(h, srv.BeginShutdown)
		if err != nil {
			return nil, err
		}
		st.onClose(stop)
		hc, err := shard.NewHTTPShard(context.Background(), url, shard.HTTPOptions{})
		if err != nil {
			return nil, err
		}
		var cl shard.ShardClient = hc
		if rec != nil {
			cl = tracedShard{ShardClient: hc, rec: rec, name: numbered(spanLeg, i), parent: spanEdgeBackend}
		}
		clients = append(clients, cl)
	}
	coord, err := shard.NewCoordinator(clients, shard.Config{})
	if err != nil {
		return nil, err
	}
	closeClients = false // the coordinator owns them now
	st.onClose(coord.Close)
	var backend server.Backend = coord
	if rec != nil {
		backend = &tracedBackend{Backend: coord, rec: rec, name: spanEdgeBackend, parent: spanEdgeHTTP, log: &callLog{}}
	}
	if err := st.serveEdge(server.New(backend, server.Config{}), queries, rec); err != nil {
		return nil, err
	}
	return st, nil
}

// startChurn is the topology of ingest-churn: one segmented index behind
// one server on loopback that ingests and compacts. With background set
// the server compacts by itself once an ingest leaves more than
// compactAfter segments; without, the client calls Server.Compact. The
// index is built once, beside the directory the server mutates, which
// starts as a copy of it; reopen puts the topology back to that start.
func startChurn(dir string, c *corpus.Corpus, queries [][]uint32, background bool, rec *recorder) (*stack, error) {
	st := &stack{}
	base, live := filepath.Join(dir, "base"), filepath.Join(dir, "idx")
	if err := st.buildIndex(c, base); err != nil {
		return nil, err
	}
	st.reopen = func() error { return st.openChurn(base, live, queries, background, rec) }
	return st, st.reopen()
}

// openChurn serves a fresh copy of the index in base from live.
func (st *stack) openChurn(base, live string, queries [][]uint32, background bool, rec *recorder) (err error) {
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
		}
	}()
	if err := os.RemoveAll(live); err != nil {
		return err
	}
	if err := os.CopyFS(live, os.DirFS(base)); err != nil {
		return err
	}
	sv := &served{dir: live, rec: rec, name: spanEdgeBackend, parent: spanEdgeHTTP, log: &callLog{}}
	b, err := sv.open()
	if err != nil {
		return err
	}
	st.onClose(sv.close)
	st.dirs = []string{live}
	st.logs = []*callLog{sv.log}
	if rec != nil {
		st.mt = &mutationTracer{rec: rec, dir: live}
	}
	cfg := sv.mutable(st.mt)
	if background {
		cfg.CompactAfter = compactAfter
	}
	st.ingest = server.New(b, cfg)
	return st.serveEdge(st.ingest, queries, rec)
}

// compactAfter is how many segments ingest-churn adds to the index
// before it is compacted: the server's CompactAfter in the traced run,
// the ingests of one cycle in the untraced run.
const compactAfter = 8

// serveEdge puts srv on loopback and points the stack's client at it.
func (st *stack) serveEdge(srv *server.Server, queries [][]uint32, rec *recorder) error {
	var h http.Handler = srv
	if rec != nil {
		h = tracedHandler{next: srv, rec: rec, name: spanEdgeHTTP, parent: spanClient}
	}
	url, stop, err := listen(h, srv.BeginShutdown)
	if err != nil {
		return err
	}
	st.onClose(stop)
	bodies, err := encodeBodies(queries)
	if err != nil {
		return err
	}
	client, closeIdle := newClient()
	st.onClose(closeIdle)
	st.tgt = &httpTarget{client: client, url: url, bodies: bodies}
	return nil
}

// indexSize is what the index directories hold.
type indexSize struct {
	bytes, tokens, postings int64
}

func measureIndex(dirs []string) (indexSize, error) {
	var sz indexSize
	for _, dir := range dirs {
		ix, err := index.Open(dir)
		if err != nil {
			return sz, err
		}
		b, err := ix.SizeOnDisk()
		sz.bytes += b
		sz.tokens += ix.Meta().TotalTokens
		sz.postings += ix.TotalPostings()
		if cerr := ix.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return sz, err
		}
	}
	return sz, nil
}
