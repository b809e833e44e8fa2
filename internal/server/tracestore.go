package server

import (
	"sync"
	"time"

	"ndss/internal/obs"
	"ndss/internal/wire"
)

// defaultTraceStoreEntries sizes each ring of the trace store when
// Config.TraceStoreEntries is zero.
const defaultTraceStoreEntries = 128

// traceEntry is one retained query trace: the assembled cross-process
// span tree plus the identifiers and stats needed to read it cold.
type traceEntry struct {
	RequestID  string           `json:"request_id"`
	TraceID    string           `json:"trace_id"`
	Endpoint   string           `json:"endpoint"`
	Start      time.Time        `json:"start"`
	DurationNS int64            `json:"duration_ns"`
	Sampled    bool             `json:"sampled"`
	Reasons    []string         `json:"reasons"`
	Err        string           `json:"err,omitempty"`
	Spans      []obs.FlightSpan `json:"spans"`
	Stats      *wire.Stats      `json:"stats,omitempty"`
}

// traceSummary is the listing row GET /debug/trace/ returns.
type traceSummary struct {
	RequestID  string   `json:"request_id"`
	Endpoint   string   `json:"endpoint"`
	DurationNS int64    `json:"duration_ns"`
	Reasons    []string `json:"reasons"`
}

// traceRef locates an entry: which ring, which slot.
type traceRef struct {
	sampledRing bool
	idx         int
}

// traceStore is the bounded store behind /debug/trace/{request_id}.
// Two rings, each of capacity entries, FIFO within the ring:
//
//   - interesting: tail-retained traces (slow, errored, partial,
//     retried, hedged) — the ones an operator actually goes looking
//     for after the fact.
//   - sampled: head-sampled traces with no tail reason.
//
// The split is the tail-based guarantee: a flood of head-sampled
// traffic can never evict the trace of the one query that timed out.
// All methods are nil-receiver safe (a nil store means disabled).
type traceStore struct {
	mu          sync.Mutex
	capacity    int
	byID        map[string]traceRef // guarded by mu
	interesting []traceEntry        // guarded by mu
	intNext     int                 // guarded by mu
	sampled     []traceEntry        // guarded by mu
	sampNext    int                 // guarded by mu
}

// newTraceStore returns a store with capacity entries per ring; 0
// selects the default, negative disables the store entirely (nil).
func newTraceStore(capacity int) *traceStore {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultTraceStoreEntries
	}
	return &traceStore{capacity: capacity, byID: make(map[string]traceRef)}
}

// record stores e, evicting the oldest entry of its ring once the ring
// is full, and reports whether an eviction happened.
func (t *traceStore) record(e traceEntry) (evicted bool) {
	if t == nil {
		return false
	}
	sampledOnly := len(e.Reasons) == 1 && e.Reasons[0] == "sampled"
	t.mu.Lock()
	defer t.mu.Unlock()
	ring, next := &t.interesting, &t.intNext
	if sampledOnly {
		ring, next = &t.sampled, &t.sampNext
	}
	if len(*ring) < t.capacity {
		t.byID[e.RequestID] = traceRef{sampledRing: sampledOnly, idx: len(*ring)}
		*ring = append(*ring, e)
		return false
	}
	idx := *next
	*next = (idx + 1) % t.capacity
	// Drop the evicted entry's lookup, unless a duplicate request id
	// already repointed it at a different slot.
	if ref, ok := t.byID[(*ring)[idx].RequestID]; ok && ref.sampledRing == sampledOnly && ref.idx == idx {
		delete(t.byID, (*ring)[idx].RequestID)
	}
	(*ring)[idx] = e
	t.byID[e.RequestID] = traceRef{sampledRing: sampledOnly, idx: idx}
	return true
}

// get returns the retained trace for a request id.
func (t *traceStore) get(id string) (traceEntry, bool) {
	if t == nil {
		return traceEntry{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ref, ok := t.byID[id]
	if !ok {
		return traceEntry{}, false
	}
	if ref.sampledRing {
		return t.sampled[ref.idx], true
	}
	return t.interesting[ref.idx], true
}

// len reports how many traces are currently retained across both rings.
func (t *traceStore) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.interesting) + len(t.sampled)
}

// index lists the retained traces (tail-retained first) for the bare
// GET /debug/trace/ listing.
func (t *traceStore) index() []traceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]traceSummary, 0, len(t.interesting)+len(t.sampled))
	for _, ring := range [2][]traceEntry{t.interesting, t.sampled} {
		for i := range ring {
			out = append(out, traceSummary{
				RequestID:  ring[i].RequestID,
				Endpoint:   ring[i].Endpoint,
				DurationNS: ring[i].DurationNS,
				Reasons:    ring[i].Reasons,
			})
		}
	}
	return out
}
