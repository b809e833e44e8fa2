package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingBackend counts its Close calls and reports a fixed segment
// count, so an ingest can trigger a background compaction.
type countingBackend struct {
	*stubBackend
	segments int
	closes   atomic.Int32
}

func (b *countingBackend) SegmentCount() int { return b.segments }

func (b *countingBackend) Close() error {
	b.closes.Add(1)
	return b.stubBackend.Close()
}

// backendLog opens counting backends and remembers every one.
type backendLog struct {
	t        *testing.T
	segments int
	mu       sync.Mutex
	opened   []*countingBackend
}

func (l *backendLog) open() (Backend, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := &countingBackend{stubBackend: newStubBackend(l.t, fmt.Sprintf("b%d", len(l.opened)), 1, false), segments: l.segments}
	l.opened = append(l.opened, b)
	return b, nil
}

// checkClosedOnce fails unless every backend the log opened was closed
// exactly once.
func (l *backendLog) checkClosedOnce(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.opened {
		if n := b.closes.Load(); n != 1 {
			t.Errorf("backend %s closed %d times, want 1", b.id, n)
		}
	}
}

// lifecycleServer serves a counting backend with a Reloader and an
// Ingester that always commit, and the given Compactor.
func lifecycleServer(t *testing.T, segments, compactAfter int, compactor func() error) (*Server, *backendLog) {
	t.Helper()
	log := &backendLog{t: t, segments: segments}
	first, _ := log.open()
	var builds atomic.Int64
	srv := New(first, Config{
		Reloader: log.open,
		Ingester: func([][]uint32) (string, error) {
			return fmt.Sprintf("build-%d", builds.Add(1)), nil
		},
		Compactor:    compactor,
		CompactAfter: compactAfter,
	})
	return srv, log
}

// waitCompaction waits for srv's background compaction, if one runs.
func waitCompaction(srv *Server) {
	srv.lifeMu.Lock()
	done := srv.compactDone
	srv.lifeMu.Unlock()
	if done != nil {
		<-done
	}
}

// TestCloseClosesEachBackendOnce: Reload closes every backend it
// replaces and Close the one serving at the end, so each backend the
// server ever held is closed exactly once; a second Close closes
// nothing, mutations fail with ErrClosed, and requests get 503.
func TestCloseClosesEachBackendOnce(t *testing.T) {
	srv, log := lifecycleServer(t, 1, 0, nil)
	for i := 0; i < 3; i++ {
		if _, _, err := srv.Reload(); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Ingest([][]uint32{{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if len(log.opened) != 7 {
		t.Fatalf("opened %d backends, want the first plus 6 swaps", len(log.opened))
	}
	log.checkClosedOnce(t)

	if _, _, err := srv.Reload(); !errors.Is(err, ErrClosed) {
		t.Errorf("Reload after Close: %v, want ErrClosed", err)
	}
	if _, err := srv.Ingest([][]uint32{{1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Ingest after Close: %v, want ErrClosed", err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(`{"tokens":[1],"theta":0.5}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/search after Close: %d, want 503", rec.Code)
	}
	log.checkClosedOnce(t)
}

// TestCloseWaitsForCompaction: Close waits for a running background
// compaction, or, when its context ends first, names the abandoned
// compaction in its error. Either way the serving backend is closed
// once and the compaction's swap is refused.
func TestCloseWaitsForCompaction(t *testing.T) {
	for _, expire := range []bool{false, true} {
		t.Run(fmt.Sprintf("expire=%v", expire), func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			srv, log := lifecycleServer(t, 2, 1, func() error {
				close(entered)
				<-release
				return nil
			})
			if _, err := srv.Ingest([][]uint32{{1, 2, 3}}); err != nil {
				t.Fatal(err)
			}
			<-entered

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			closed := make(chan error, 1)
			go func() { closed <- srv.Close(ctx) }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned %v while the compaction ran", err)
			case <-time.After(50 * time.Millisecond):
			}
			if expire {
				cancel()
				err := <-closed
				if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "compaction") {
					t.Fatalf("Close with an ended context: %v, want the abandoned compaction", err)
				}
				close(release)
				waitCompaction(srv)
			} else {
				close(release)
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
			}
			if got := srv.met.compactions.Load(); got != 0 {
				t.Errorf("%d compactions swapped in after Close, want 0", got)
			}
			log.checkClosedOnce(t)
		})
	}
}

// TestCloseRacesReloadAndIngest runs Close against concurrent Reload
// and Ingest calls (under -race in CI): every call either completes its
// swap or fails, and every backend is still closed exactly once.
func TestCloseRacesReloadAndIngest(t *testing.T) {
	srv, log := lifecycleServer(t, 1, 0, nil)
	var wg, warm sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		warm.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				var err error
				if w%2 == 0 {
					_, _, err = srv.Reload()
				} else {
					_, err = srv.Ingest([][]uint32{{1, 2, 3}})
				}
				if i == 0 {
					warm.Done()
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	warm.Wait() // every worker is mid-loop when Close runs
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	log.checkClosedOnce(t)
}
