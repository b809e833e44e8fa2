package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
	"ndss/internal/hash"
	"ndss/internal/index"
	"ndss/internal/search"
)

// Ingest non-idempotency regression: when the append commits durably
// but the post-append reload fails, the server must say so in a typed
// way — the committed build id plus a SwapError — so the client retries
// with a reload, never by re-sending the texts (which would duplicate
// them in the index).

// faultBackend is a Backend over an index opened through a FaultFS, so
// tests can fail the next reload at the filesystem layer.
type faultBackend struct {
	*search.Searcher
	ix *index.Index
}

func openFaultBackend(ffs *fsio.FaultFS, dir string) (Backend, error) {
	ix, err := index.OpenFS(ffs, dir)
	if err != nil {
		return nil, err
	}
	return faultBackend{Searcher: search.New(ix, nil), ix: ix}, nil
}

func (b faultBackend) Explain(ctx context.Context, q []uint32, o search.Options) (*search.Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Searcher.Explain(q, o)
}

func (b faultBackend) Meta() index.Meta       { return b.ix.Meta() }
func (b faultBackend) Family() *hash.Family   { return b.ix.Family() }
func (b faultBackend) IOStats() index.IOStats { return b.ix.IOStats() }
func (b faultBackend) BuildID() string        { return b.ix.BuildID() }
func (b faultBackend) Close() error           { return b.ix.Close() }

func TestIngestSwapFailureCommitsAndRecoversByReload(t *testing.T) {
	c := corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 40, MinLength: 40, MaxLength: 120, VocabSize: 40,
		ZipfS: 1.3, Seed: 7, DupRate: 0.5, DupSnippetLen: 20, DupMutateProb: 0.05,
	})
	dir := t.TempDir() + "/ix"
	buildCorpusAt(t, c, dir)
	ffs := fsio.NewFaultFS(fsio.OS).SetCrash(false)
	backend, err := openFaultBackend(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(backend, Config{
		Reloader: func() (Backend, error) { return openFaultBackend(ffs, dir) },
		Ingester: func(texts [][]uint32) (string, error) { return index.Append(dir, corpus.New(texts)) },
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	oldID := healthzBuildID(t, ts)

	// Arm a read fault on every segment file's header: the append itself
	// runs on the plain OS filesystem and commits, but the post-append
	// reopen through ffs fails.
	ffs.FailReadAt("seg-", 0)
	snip := snippet(1, 30)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/ingest", ingestRequest{Texts: [][]uint32{snip}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest with failing swap: %d (%s), want 500", resp.StatusCode, body)
	}
	var ir struct {
		Status           string `json:"status"`
		CommittedBuildID string `json:"committed_build_id"`
		Error            string `json:"error"`
		RequestID        string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Status != "committed_swap_failed" || ir.CommittedBuildID == "" || ir.CommittedBuildID == oldID {
		t.Fatalf("swap-failure response = %+v (old build %q); want committed_swap_failed with the new build id", ir, oldID)
	}
	if ir.RequestID == "" {
		t.Error("swap-failure response carries no request id")
	}

	// The old backend keeps serving: old content answers, the new text
	// is not visible yet, and healthz still reports the old build.
	if ms := searchMatches(t, ts, c.Text(0)[:12], 0.5); len(ms) == 0 {
		t.Fatal("old index stopped serving after failed swap")
	}
	if ms := searchMatches(t, ts, snip, 0.9); len(ms) != 0 {
		t.Fatalf("unswapped text already visible: %+v", ms)
	}
	if id := healthzBuildID(t, ts); id != oldID {
		t.Fatalf("healthz build id = %q after failed swap, want old %q", id, oldID)
	}

	// Recovery is a reload, not a re-ingest: clear the fault and retry
	// the swap alone.
	ffs.ClearReadFault()
	resp, body = postJSON(t, ts.Client(), ts.URL+"/admin/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery reload: %d (%s)", resp.StatusCode, body)
	}
	if id := healthzBuildID(t, ts); id != ir.CommittedBuildID {
		t.Fatalf("after recovery reload build id = %q, want the committed %q", id, ir.CommittedBuildID)
	}
	// Exactly one copy of the text: the failed request committed once
	// and the recovery added nothing.
	if ms := searchMatches(t, ts, snip, 0.9); len(ms) != 1 {
		t.Fatalf("ingested text after recovery: %d matches, want exactly 1 (no duplicates)", len(ms))
	}
}

// TestIngestUnconfirmedCommitIsNotRetriable is the twin for the other
// way a committed append can come back with an error: the manifest
// rename went through but its trailing directory fsync failed, so
// index.Append returns the committed build id beside a
// *CommitUnconfirmedError. The server must swap the build in and answer
// in the committed shape — never the plain 500 that invites a re-send.
func TestIngestUnconfirmedCommitIsNotRetriable(t *testing.T) {
	srv, _ := ingestFixture(t, 0)
	realIngester := srv.cfg.Ingester
	srv.cfg.Ingester = func(texts [][]uint32) (string, error) {
		id, err := realIngester(texts)
		if err != nil {
			return id, err
		}
		return id, &index.CommitUnconfirmedError{BuildID: id, Err: fsio.ErrInjected}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	oldID := healthzBuildID(t, ts)

	snip := snippet(2, 30)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/ingest", ingestRequest{Texts: [][]uint32{snip}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest with unconfirmed commit: %d (%s), want 500", resp.StatusCode, body)
	}
	var ir struct {
		Status           string `json:"status"`
		CommittedBuildID string `json:"committed_build_id"`
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Status != "committed_swap_failed" || ir.CommittedBuildID == "" || ir.CommittedBuildID == oldID {
		t.Fatalf("unconfirmed-commit response = %+v (old build %q); want the committed shape with the new build id", ir, oldID)
	}
	// The committed build is already serving, exactly one copy of the text.
	if id := healthzBuildID(t, ts); id != ir.CommittedBuildID {
		t.Fatalf("healthz build id = %q, want the committed %q", id, ir.CommittedBuildID)
	}
	if ms := searchMatches(t, ts, snip, 0.9); len(ms) != 1 {
		t.Fatalf("ingested text: %d matches, want exactly 1", len(ms))
	}
	_, err := srv.Ingest([][]uint32{snippet(4, 30)})
	var swapErr *SwapError
	var unconfirmed *index.CommitUnconfirmedError
	if !errors.As(err, &swapErr) || !errors.As(err, &unconfirmed) || swapErr.CommittedBuildID != unconfirmed.BuildID {
		t.Fatalf("Ingest error = %v, want a SwapError wrapping the CommitUnconfirmedError", err)
	}
}

// TestIngestAppendFailureIsRetriable pins the other half of the typed
// contract: when the append itself fails (nothing committed), the error
// is NOT a SwapError and re-sending the same texts is safe.
func TestIngestAppendFailureIsRetriable(t *testing.T) {
	srv, _ := ingestFixture(t, 0)
	failAppend := errors.New("injected append failure")
	realIngester := srv.cfg.Ingester
	fail := true
	srv.cfg.Ingester = func(texts [][]uint32) (string, error) {
		if fail {
			return "", failAppend
		}
		return realIngester(texts)
	}

	snip := snippet(3, 30)
	_, err := srv.Ingest([][]uint32{snip})
	if !errors.Is(err, failAppend) {
		t.Fatalf("failed append: err = %v, want the append error", err)
	}
	var swapErr *SwapError
	if errors.As(err, &swapErr) {
		t.Fatal("a pre-commit append failure must not be a SwapError")
	}

	// Retrying the identical ingest is safe and yields exactly one copy.
	fail = false
	if _, err := srv.Ingest([][]uint32{snip}); err != nil {
		t.Fatalf("retried ingest: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if ms := searchMatches(t, ts, snip, 0.9); len(ms) != 1 {
		t.Fatalf("retried text: %d matches, want exactly 1", len(ms))
	}
}

// TestCompactUnconfirmedCommitSwapsIn is the compaction twin: a
// compaction whose directory swap landed but whose parent fsync failed
// comes back from index.Compact as a *CommitUnconfirmedError. The
// compacted index is live on disk, so the server must swap it in and
// answer in the committed shape, naming the build — not a plain 500
// that invites a second compaction.
func TestCompactUnconfirmedCommitSwapsIn(t *testing.T) {
	srv, dir := ingestFixture(t, 0)
	if _, err := srv.Ingest([][]uint32{snippet(5, 30)}); err != nil {
		t.Fatal(err)
	}
	srv.cfg.Compactor = func() error {
		if err := index.Compact(dir); err != nil {
			return err
		}
		ix, err := index.Open(dir)
		if err != nil {
			return err
		}
		defer ix.Close()
		return &index.CommitUnconfirmedError{BuildID: ix.BuildID(), Err: fsio.ErrInjected}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	oldID := healthzBuildID(t, ts)

	resp, body := postJSON(t, ts.Client(), ts.URL+"/admin/compact", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("compact with unconfirmed commit: %d (%s), want 500", resp.StatusCode, body)
	}
	var cr struct {
		Status           string `json:"status"`
		CommittedBuildID string `json:"committed_build_id"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Status != "committed_swap_failed" || cr.CommittedBuildID == "" || cr.CommittedBuildID == oldID {
		t.Fatalf("unconfirmed-compaction response = %+v (old build %q); want the committed shape with the new build id", cr, oldID)
	}
	// The compacted build is serving: one segment, nothing lost.
	if id := healthzBuildID(t, ts); id != cr.CommittedBuildID {
		t.Fatalf("healthz build id = %q, want the committed %q", id, cr.CommittedBuildID)
	}
	if n := segmentCount(srv.backend()); n != 1 {
		t.Fatalf("serving %d segments after the compaction, want 1", n)
	}
	if ms := searchMatches(t, ts, snippet(5, 30), 0.9); len(ms) != 1 {
		t.Fatalf("ingested text after compaction: %d matches, want exactly 1", len(ms))
	}

	_, err := srv.Compact()
	var swapErr *SwapError
	var unconfirmed *index.CommitUnconfirmedError
	if !errors.As(err, &swapErr) || !errors.As(err, &unconfirmed) ||
		swapErr.Op != "compact" || swapErr.CommittedBuildID != unconfirmed.BuildID {
		t.Fatalf("Compact error = %v, want a compact SwapError wrapping the CommitUnconfirmedError", err)
	}
}
