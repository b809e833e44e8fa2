package server

// The slow-query flight recorder: a bounded, mutex-guarded store of
// query traces served at GET /debug/slowlog. Two views are kept — the
// N slowest queries since start (min-replacement, so a burst of fast
// traffic never evicts a genuinely slow outlier) and the N most recent
// executed queries (a ring buffer, for "what is the server doing right
// now"). Both are value slices recorded in O(1)/O(N) with N small
// (default 32), so the critical section is a few hundred nanoseconds;
// queries below the current slowest floor skip the scan entirely via an
// atomic gate.

import (
	"sync"
	"sync/atomic"
	"time"

	"ndss/internal/obs"
	"ndss/internal/wire"
)

// defaultSlowlogEntries sizes each slowlog view when Config leaves it 0.
const defaultSlowlogEntries = 32

// slowlogEntry is one recorded query trace.
type slowlogEntry struct {
	RequestID  string      `json:"request_id"`
	Endpoint   string      `json:"endpoint"`
	Start      time.Time   `json:"start"`
	DurationNS int64       `json:"duration_ns"`
	Theta      float64     `json:"theta"`
	NumTokens  int         `json:"num_tokens"`
	Stats      *wire.Stats `json:"stats,omitempty"`
	Spans      []obs.Span  `json:"spans,omitempty"`
}

type slowlog struct {
	mu sync.Mutex

	// slowest holds up to cap entries; minIdx tracks the cheapest one so
	// replacement is O(1) amortized (O(N) re-scan on replacement).
	// guarded by mu
	slowest []slowlogEntry

	// recent is a ring of the last cap executed queries. guarded by mu
	recent []slowlogEntry
	next   int // guarded by mu

	capacity int

	// floorNS is the duration of the cheapest retained slowest entry
	// once the view is full; faster queries skip the lock for the
	// slowest view (they still take it briefly for the recent ring).
	floorNS atomic.Int64
}

func newSlowlog(capacity int) *slowlog {
	if capacity == 0 {
		capacity = defaultSlowlogEntries
	}
	if capacity < 0 {
		return nil // disabled
	}
	return &slowlog{capacity: capacity}
}

// record stores one executed query's trace.
func (l *slowlog) record(e slowlogEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	// Recent ring.
	if len(l.recent) < l.capacity {
		l.recent = append(l.recent, e)
	} else {
		l.recent[l.next] = e
	}
	l.next = (l.next + 1) % l.capacity

	// Slowest view.
	switch {
	case len(l.slowest) < l.capacity:
		l.slowest = append(l.slowest, e)
		if len(l.slowest) == l.capacity {
			l.floorNS.Store(l.minDurLocked())
		}
	case e.DurationNS > l.floorNS.Load():
		mi := 0
		for i := 1; i < len(l.slowest); i++ {
			if l.slowest[i].DurationNS < l.slowest[mi].DurationNS {
				mi = i
			}
		}
		l.slowest[mi] = e
		l.floorNS.Store(l.minDurLocked())
	}
	l.mu.Unlock()
}

// shouldRecordSlow reports whether a query of duration d would enter
// the slowest view, so callers can skip building an expensive entry
// (span snapshot etc.) for fast queries once the view is full. Entries
// still enter the recent ring regardless.
func (l *slowlog) wouldEnterSlowest(d time.Duration) bool {
	if l == nil {
		return false
	}
	return int64(d) > l.floorNS.Load()
}

// minDurLocked scans for the cheapest retained entry; the caller holds
// l.mu (the Locked suffix is the guardedby callee-side convention).
func (l *slowlog) minDurLocked() int64 {
	min := l.slowest[0].DurationNS
	for _, e := range l.slowest[1:] {
		if e.DurationNS < min {
			min = e.DurationNS
		}
	}
	return min
}

func (l *slowlog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.slowest)
}

// snapshot returns the slowest entries (descending by duration) and the
// recent entries (newest first).
func (l *slowlog) snapshot() (slowest, recent []slowlogEntry) {
	if l == nil {
		return nil, nil
	}
	l.mu.Lock()
	slowest = append([]slowlogEntry(nil), l.slowest...)
	n := len(l.recent)
	recent = make([]slowlogEntry, 0, n)
	for i := 1; i <= n; i++ {
		recent = append(recent, l.recent[(l.next-i+n+n)%n])
	}
	l.mu.Unlock()
	// Sort outside the lock; N is small.
	for i := 1; i < len(slowest); i++ {
		for j := i; j > 0 && slowest[j].DurationNS > slowest[j-1].DurationNS; j-- {
			slowest[j], slowest[j-1] = slowest[j-1], slowest[j]
		}
	}
	return slowest, recent
}
