package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"ndss/internal/shard"
	"ndss/internal/wire"
)

// BenchmarkServeSearch times one uncached POST /search through
// Server.ServeHTTP on a small index: request decode, admission, the
// query, the flight record, response encoding and the log lines, with
// no network. Everything but the cache keeps its default, so a change
// to the serving tier's per-request work shows in ns/op and allocs/op.
// "default" runs with a nil Logger, which formats nothing; "text-log"
// formats every line into io.Discard, as ndss-serve's stderr handler
// does, so it adds the cost of the access line and the record line.
// "sharded" is the serving path of a sharded query: the edge Server
// over a Coordinator over one HTTPShard, whose loopback leg reaches a
// second Server on the same engine, so both hops' encode and decode of
// the match list are in its allocs/op.
func BenchmarkServeSearch(b *testing.B) {
	_, engine, q := testFixture(b)
	body, err := json.Marshal(wire.Request{Tokens: q, Theta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	leaf := httptest.NewServer(New(engine, Config{CacheEntries: -1}))
	defer leaf.Close()
	hs, err := shard.NewHTTPShard(context.Background(), leaf.URL, shard.HTTPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	coord, err := shard.NewCoordinator([]shard.ShardClient{hs}, shard.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	for _, bc := range []struct {
		name    string
		backend Backend
		logger  *slog.Logger
	}{
		{"default", engine, nil},
		{"text-log", engine, slog.New(slog.NewTextHandler(io.Discard, nil))},
		{"sharded", coord, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := New(bc.backend, Config{CacheEntries: -1, Logger: bc.logger})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body)
				}
			}
		})
	}
}
