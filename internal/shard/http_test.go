package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndss/internal/search"
)

// TestHTTPShardAdmissionCap: with the per-shard cap at 1, a second leg
// to a remote that is still answering the first waits for a slot and,
// when its budget runs out, fails with its context without ever
// reaching the remote. Once the first leg finishes, the slot is free
// again.
func TestHTTPShardAdmissionCap(t *testing.T) {
	defer func(old int) { maxInFlight = old }(maxInFlight)
	maxInFlight = 1

	var requests atomic.Int32
	arrived := make(chan struct{})
	unblock := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == 1 {
			close(arrived)
			select {
			case <-unblock:
			case <-r.Context().Done():
			}
		}
		http.Error(w, "remote refuses", http.StatusInternalServerError)
	}))
	defer ts.Close()
	// Registered after ts.Close so it runs first: a failing test must
	// not leave ts.Close waiting on the blocked first request.
	release := sync.OnceFunc(func() { close(unblock) })
	defer release()
	hs := NewHTTPShardDeferred(ts.URL, HTTPOptions{Client: ts.Client()})
	defer hs.Close()
	opts := search.Options{Theta: 0.5}
	query := []uint32{1, 2, 3}

	first := make(chan error, 1)
	go func() {
		_, _, err := hs.SearchContext(context.Background(), query, opts)
		first <- err
	}()
	<-arrived

	const budget = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, _, err := hs.SearchContext(ctx, query, opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second leg: %v, want its context's deadline", err)
	}
	if waited := time.Since(start); waited < budget {
		t.Errorf("second leg returned after %v, before its %v budget", waited, budget)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("remote saw %d requests while the only slot was held, want 1", n)
	}

	release()
	if err := <-first; err == nil {
		t.Fatal("first leg: no error from a remote that answers 500")
	}
	var remote *RemoteError
	if _, _, err := hs.SearchContext(context.Background(), query, opts); !errors.As(err, &remote) {
		t.Fatalf("leg after the slot freed: %v, want the remote's answer", err)
	}
	if n := requests.Load(); n != 2 {
		t.Fatalf("remote saw %d requests, want 2", n)
	}
}
