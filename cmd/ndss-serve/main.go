// Command ndss-serve exposes an opened index as an HTTP JSON query
// service.
//
//	ndss-serve -index idx -corpus corpus.tok -addr :8080
//
// Endpoints:
//
//	POST /search       {"tokens":[...],"theta":0.8,...} -> matches + stats
//	POST /search/topk  {"tokens":[...],"n":10,"floor_theta":0.5,...}
//	GET  /explain?tokens=1,2,3&theta=0.8  -> the query plan, no I/O
//	GET  /healthz      200 while serving, 503 once shutdown begins;
//	                   reports the active index build id
//	GET  /metrics      Prometheus text exposition; JSON counters for
//	                   Accept: application/json
//	GET  /debug/slowlog the flight recorder's stage-annotated records
//	                   of the slowest and most recent queries
//	GET  /debug/trace/{request_id} a held query's record with its
//	                   assembled cross-process trace tree (tail-based:
//	                   slow, errored, partial, retried, and hedged
//	                   queries are kept ahead of the ones -trace-sample
//	                   head-samples). Bare /debug/trace/ lists the
//	                   records that carry a retention reason.
//	POST /admin/reload reopen the index directory and hot-swap to it
//	POST /ingest       {"texts":[[...],...]} append texts as a new index
//	                   segment and hot-swap; searchable on return
//	                   (requires -ingest)
//	POST /admin/compact merge the index's segment set into one segment,
//	                   dropping deleted texts, then hot-swap
//	                   (requires -ingest)
//
// Requests are bounded by an admission semaphore (-max-inflight; excess
// returns 429) and a per-request deadline (the request's timeout_ms
// field, default -timeout, capped at -max-timeout). SIGINT/SIGTERM
// starts a graceful shutdown: new work is refused while in-flight
// queries drain.
//
// Observability: every request gets an X-Request-ID (client-supplied
// ones are honored) echoed on the response and stamped on the
// structured access log (-log text|json). The id and a W3C
// traceparent-style trace context are forwarded on every shard and
// replica call, so a sharded deployment's logs and traces join across
// processes; -trace-sample controls head-sampling of full span
// shipping. Every query logs one line with its complete breakdown:
// INFO "query", or WARN "slow query" past -slow-query. Profiling
// endpoints (net/http/pprof) are off by default; -debug-addr serves
// them on a separate listener so they are never exposed on the query
// port — query handlers label their goroutines with request_id,
// endpoint, and shard via runtime/pprof, so CPU profiles join back to
// specific requests.
//
// After rebuilding the index in place (ndss-index commits atomically,
// so the running server never sees a partial build), POST /admin/reload
// or SIGHUP swaps the server onto the new build with zero failed
// requests: queries in flight finish on the old index while new ones
// already run against the new one.
//
// With -ingest, POST /ingest appends texts to the index as an immutable
// segment and hot-swaps the same way — the live segments are never
// rewritten, so ingest is cheap and crash-safe. Once the segment set
// grows past -compact-after, a background compaction merges it back to
// one segment; POST /admin/compact triggers one on demand.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ndss"
	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/server"
	"ndss/internal/shard"
)

type serveConfig struct {
	idxDir      string
	corpusPath  string
	addr        string
	maxInFlight int
	timeout     time.Duration
	maxTimeout  time.Duration
	cache       int
	drain       time.Duration

	slowQuery   time.Duration
	slowlog     int
	traceSample float64
	debugAddr   string
	logFormat   string

	ingest       bool
	compactAfter int

	shards        string
	shardTimeout  time.Duration
	shardInflight int

	hedgeAfter      time.Duration
	breakerFailures int
	probeInterval   time.Duration
}

func main() {
	var c serveConfig
	flag.StringVar(&c.idxDir, "index", "idx", "index directory")
	flag.StringVar(&c.corpusPath, "corpus", "", "corpus file (enables \"verify\":true requests)")
	flag.StringVar(&c.addr, "addr", ":8080", "listen address")
	flag.IntVar(&c.maxInFlight, "max-inflight", 64, "concurrent query limit before 429")
	flag.DurationVar(&c.timeout, "timeout", 10*time.Second, "default per-request query deadline")
	flag.DurationVar(&c.maxTimeout, "max-timeout", 60*time.Second, "cap on client-requested timeout_ms")
	flag.IntVar(&c.cache, "cache", 256, "result cache entries (0 disables)")
	flag.DurationVar(&c.drain, "drain", 30*time.Second, "shutdown drain allowance for in-flight requests")
	flag.DurationVar(&c.slowQuery, "slow-query", 500*time.Millisecond, "log queries at least this slow at WARN (\"slow query\") and retain their trace (0 disables)")
	flag.IntVar(&c.slowlog, "slowlog", 32, "flight recorder entries per view (slowest, recent, retained) at /debug/slowlog and /debug/trace/ (0 disables)")
	flag.Float64Var(&c.traceSample, "trace-sample", 0, "fraction of queries head-sampled into full distributed tracing (0 never samples; slow/errored/partial/retried/hedged queries are tail-retained regardless)")
	flag.StringVar(&c.debugAddr, "debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	flag.StringVar(&c.logFormat, "log", "text", "log format: text or json")
	flag.BoolVar(&c.ingest, "ingest", false, "enable POST /ingest and /admin/compact (live segment appends)")
	flag.IntVar(&c.compactAfter, "compact-after", 8, "with -ingest, auto-compact once the index exceeds this many segments (0 disables)")
	flag.StringVar(&c.shards, "shards", "", "comma-separated shard list (index directories and/or http(s):// ndss-serve URLs); serves a scatter–gather coordinator over them instead of -index. Separate interchangeable replicas of one shard with | (url1|url2)")
	flag.DurationVar(&c.shardTimeout, "shard-timeout", 0, "per-shard deadline budget for fan-out legs; shards that miss it are skipped and the result is flagged partial (0 = request deadline only)")
	flag.IntVar(&c.shardInflight, "shard-inflight", 0, "per-remote-shard concurrent request cap (0 = the shard package default)")
	flag.DurationVar(&c.hedgeAfter, "hedge-after", 5*time.Millisecond, "hedge a shard leg onto another replica once the first attempt exceeds max(replica streaming P95, this floor) (0 disables)")
	flag.IntVar(&c.breakerFailures, "breaker-failures", 5, "consecutive failures that open a replica's circuit breaker (≤ 0 selects the default)")
	flag.DurationVar(&c.probeInterval, "probe-interval", 2*time.Second, "background replica health-probe period; a probe that reaches a replica closes its breaker and lifts a stale quarantine (≤ 0 selects the default)")
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "ndss-serve:", err)
		os.Exit(1)
	}
}

func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log format %q (want text or json)", format)
}

// openBackend opens the index directory and, when configured, attaches
// the corpus, which the DB then owns. It is also the server's Reloader:
// each reload opens fresh handles so the retiring backend can be closed
// safely.
func openBackend(idxDir, corpusPath string) (*ndss.DB, error) {
	db, err := ndss.Open(idxDir)
	if err != nil || corpusPath == "" {
		return db, err
	}
	if err := db.AttachCorpusFile(corpusPath); err != nil {
		_ = db.Close() // the attach error is the one to report
		return nil, err
	}
	return db, nil
}

// replicaConfig maps the resilience flags onto shard.ReplicaConfig.
// -hedge-after uses 0 for "off", the intuitive reading; the config uses
// negative for "off" so its zero value can mean "default".
func replicaConfig(c serveConfig) shard.ReplicaConfig {
	cfg := shard.ReplicaConfig{
		HedgeDelayMin:   c.hedgeAfter,
		BreakerFailures: c.breakerFailures,
		ProbeInterval:   c.probeInterval,
	}
	if c.hedgeAfter <= 0 {
		cfg.HedgeDelayMin = -1
	}
	return cfg
}

// openCoordinator builds the scatter–gather backend for -shards: each
// comma-separated entry is one doc-range shard — an http(s):// URL (a
// remote ndss-serve, its metadata discovered via /healthz) or a local
// index directory (opened in-process). Text-id bases follow shard
// order, so the listing order must match the order the shards were
// split in.
//
// An entry may list |-separated interchangeable replicas of the same
// build (url1|url2); those are served through a ReplicaSet with
// retries, hedging, circuit breakers, and background health probes. A
// replica that is unreachable at startup joins its group quarantined
// and enters rotation once a probe reaches it — only a group with no
// reachable replica at all fails startup, because the coordinator
// needs each shard's metadata for text-id bases.
func openCoordinator(c serveConfig, logger *slog.Logger) (server.Backend, error) {
	var clients []shard.ShardClient
	ok := false
	defer func() {
		if !ok {
			for _, cl := range clients {
				_ = cl.Close() // the construction error is the one to report
			}
		}
	}()
	httpOpts := shard.HTTPOptions{MaxInFlight: c.shardInflight}
	for _, entry := range strings.Split(c.shards, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		var names []string
		for _, name := range strings.Split(entry, "|") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		var reps []shard.ShardClient
		closeReps := func() {
			for _, r := range reps {
				_ = r.Close()
			}
		}
		for _, name := range names {
			if strings.HasPrefix(name, "http://") || strings.HasPrefix(name, "https://") {
				hs, err := shard.NewHTTPShard(context.Background(), name, httpOpts)
				if err != nil {
					if len(names) > 1 {
						logger.Warn("replica unreachable at startup; starting quarantined until a health probe reaches it",
							"replica", name, "error", err)
						reps = append(reps, shard.NewHTTPShardDeferred(name, httpOpts))
						continue
					}
					closeReps()
					return nil, err
				}
				reps = append(reps, hs)
				continue
			}
			b, err := openBackend(name, "")
			if err != nil {
				closeReps()
				return nil, err
			}
			reps = append(reps, shard.NewLocal(name, b))
		}
		switch len(reps) {
		case 0:
			continue
		case 1:
			clients = append(clients, reps[0])
		default:
			rs, err := shard.NewReplicaSet(entry, reps, replicaConfig(c))
			if err != nil {
				closeReps()
				return nil, err
			}
			clients = append(clients, rs)
		}
	}
	coord, err := shard.NewCoordinator(clients, shard.Config{ShardBudget: c.shardTimeout})
	if err != nil {
		return nil, err
	}
	ok = true
	return coord, nil
}

// debugServer serves pprof on its own listener, keeping profiling off
// the query port entirely.
func debugServer(addr string, logger *slog.Logger) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("pprof server failed", "error", err)
		}
	}()
	return hs
}

func run(c serveConfig) error {
	logger, err := newLogger(c.logFormat)
	if err != nil {
		return err
	}
	var backend server.Backend
	if c.shards != "" {
		if c.ingest {
			return fmt.Errorf("-ingest is incompatible with -shards: the coordinator's text-id bases are fixed at startup; ingest into individual shards and restart (or SIGHUP) the coordinator")
		}
		if c.corpusPath != "" {
			return fmt.Errorf("-corpus is incompatible with -shards: configure verification on each shard's own server")
		}
		backend, err = openCoordinator(c, logger)
	} else {
		backend, err = openBackend(c.idxDir, c.corpusPath)
	}
	if err != nil {
		return err
	}
	defer func() {
		if cl, ok := backend.(io.Closer); ok {
			_ = cl.Close() // exiting; nothing useful to do with a close error
		}
	}()

	cache := c.cache
	if cache == 0 {
		cache = -1 // Config treats <0 as "disabled", 0 as "default"
	}
	slowlog := c.slowlog
	if slowlog == 0 {
		slowlog = -1
	}
	scfg := server.Config{
		MaxInFlight:        c.maxInFlight,
		DefaultTimeout:     c.timeout,
		MaxTimeout:         c.maxTimeout,
		CacheEntries:       cache,
		Logger:             logger,
		SlowQueryThreshold: c.slowQuery,
		SlowlogEntries:     slowlog,
		TraceSampleRate:    c.traceSample,
		Reloader: func() (server.Backend, error) {
			if c.shards != "" {
				// Rebuild the whole topology: local shards reopen their
				// directories, remote shards reconnect and re-learn their
				// build ids. The server's refcounted handle swaps the new
				// coordinator in with zero failed requests.
				return openCoordinator(c, logger)
			}
			return openBackend(c.idxDir, c.corpusPath)
		},
	}
	if c.ingest {
		scfg.Ingester = func(texts [][]uint32) (string, error) {
			return index.Append(c.idxDir, corpus.New(texts))
		}
		scfg.Compactor = func() error { return index.Compact(c.idxDir) }
		scfg.CompactAfter = c.compactAfter
	}
	srv := server.New(backend, scfg)
	hs := &http.Server{
		Addr:              c.addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	var dbg *http.Server
	if c.debugAddr != "" {
		dbg = debugServer(c.debugAddr, logger)
	}

	errc := make(chan error, 1)
	go func() {
		meta := backend.Meta()
		source := c.idxDir
		if c.shards != "" {
			source = c.shards
		}
		logger.Info("serving",
			"index", source, "build_id", backend.BuildID(),
			"k", meta.K, "t", meta.T, "texts", meta.NumTexts, "addr", c.addr)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-errc:
			return err
		case s := <-sig:
			if s == syscall.SIGHUP {
				oldID, newID, err := srv.Reload()
				if err != nil {
					logger.Error("reload failed, still serving previous index", "error", err)
				} else {
					logger.Info("reloaded index", "index", c.idxDir, "old_build_id", oldID, "build_id", newID)
				}
				continue
			}
			logger.Info("draining in-flight requests", "signal", s.String())
		}
		break
	}

	srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), c.drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if dbg != nil {
		_ = dbg.Shutdown(ctx) // best-effort; the process is exiting either way
	}
	logger.Info("drained, exiting")
	return nil
}
