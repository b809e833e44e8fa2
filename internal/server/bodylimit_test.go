package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ndss/internal/wire"
)

// Over-limit body regression tests: the request-body caps must answer
// 413 (not a generic 400), count into the too_large metric, and — the
// original bug — hand the real ResponseWriter to http.MaxBytesReader so
// the connection is closed instead of leaving the unread body bytes to
// desync the next keep-alive request.

// shrinkBodyLimits lowers the package body caps for the duration of one
// test so the over-limit path is reachable with small payloads.
func shrinkBodyLimits(t *testing.T, n int64) {
	t.Helper()
	oldQ, oldI := maxQueryBodyBytes, maxIngestBodyBytes
	maxQueryBodyBytes, maxIngestBodyBytes = n, n
	t.Cleanup(func() { maxQueryBodyBytes, maxIngestBodyBytes = oldQ, oldI })
}

func oversizedTokens(limit int64) []uint32 {
	// Each token serializes to at least two bytes ("N,"), so this body
	// overshoots the limit comfortably.
	out := make([]uint32, limit)
	for i := range out {
		out[i] = uint32(i % 100)
	}
	return out
}

func TestQueryBodyLimitAnswers413(t *testing.T) {
	shrinkBodyLimits(t, 512)
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{"/search", "/search/topk", "/explain"} {
		resp, body := postJSON(t, ts.Client(), ts.URL+path,
			wire.Request{Tokens: oversizedTokens(512), Theta: 0.5, N: 3})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: %d (%s), want 413", path, resp.StatusCode, body)
		}
		var er wire.Error
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: 413 body is not the error shape: %v (%s)", path, err, body)
		}
		if er.RequestID == "" {
			t.Errorf("%s: 413 error carries no request id", path)
		}

		// The connection survives for the client: a well-formed follow-up
		// request on the same keep-alive client must succeed. (With the
		// nil-ResponseWriter bug, MaxBytesReader could not ask the server
		// to close the connection, and the unread body bytes of the
		// rejected request desynced exactly this follow-up.)
		resp, body = postJSON(t, ts.Client(), ts.URL+"/search", wire.Request{Tokens: q, Theta: 0.5})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("follow-up after 413 on %s: %d (%s), want 200", path, resp.StatusCode, body)
		}
	}

	// Metrics: one too_large per endpoint hit, as its own counter, not
	// bad_request.
	samples := scrapeMetrics(t, ts)
	if n := sumSamples(samples, "ndss_requests_too_large_total", nil); n != 3 {
		t.Errorf("too_large = %d, want 3", n)
	}
	if n := sumSamples(samples, "ndss_requests_bad_request_total", nil); n != 0 {
		t.Errorf("bad_request = %d, want 0 (413s must not count as 400s)", n)
	}
}

// TestQueryBodyLimitAfterWholeValue: the request is the body's first
// JSON value, so a whole value followed by padding past the cap is
// answered, as the stream decoder always answered it; a value the cap
// cuts short is a 413.
func TestQueryBodyLimitAfterWholeValue(t *testing.T) {
	_, engine, q := testFixture(t)
	body, err := json.Marshal(wire.Request{Tokens: q, Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	shrinkBodyLimits(t, int64(len(body))+16)
	ts := httptest.NewServer(New(engine, Config{}))
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"whole value, then padding", string(body) + strings.Repeat(" ", 4096), http.StatusOK},
		{"value cut by the cap", strings.Repeat(" ", 32) + string(body), http.StatusRequestEntityTooLarge},
	} {
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %d (%s), want %d", tc.name, resp.StatusCode, got, tc.want)
		}
	}
}

func TestIngestBodyLimitAnswers413(t *testing.T) {
	shrinkBodyLimits(t, 512)
	srv, _ := ingestFixture(t, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/ingest",
		ingestRequest{Texts: [][]uint32{oversizedTokens(512)}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: %d (%s), want 413", resp.StatusCode, body)
	}
	var er wire.Error
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("413 body is not the error shape: %v (%s)", err, body)
	}

	// The same keep-alive client can still ingest a small batch.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/ingest",
		ingestRequest{Texts: [][]uint32{snippet(1, 30)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up ingest after 413: %d (%s), want 200", resp.StatusCode, body)
	}

	// A body within the limit but malformed stays a 400.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/ingest", map[string]any{"bogus": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed small body: %d (%s), want 400", resp.StatusCode, body)
	}
}
