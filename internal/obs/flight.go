package obs

import (
	"encoding/hex"
	"time"
)

// Flight assembly: one query's trace tree, drawn after the query has
// completed from its record: the legs and replica attempts a
// coordinator logged, and the stage times of this process and of every
// answering shard, laid end to end under the span that carried them.

// FlightSpan is one node of an assembled cross-process trace tree.
// Start is relative to the flight's root span (the query's arrival at
// the serving edge); a shard's stage spans are placed from their
// carrying attempt's start, so timings from different processes share
// one axis.
type FlightSpan struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_span_id,omitempty"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// Flight accumulates the assembled tree. Not safe for concurrent use;
// assembly happens once, after the query, on one goroutine — the
// single-owner alternative to the `// guarded by <mu>` discipline
// (docs/INVARIANTS.md#guardedby): no field here may ever be touched
// from a spawned goroutine, so there is deliberately no mutex to name.
type Flight struct {
	spans []FlightSpan
}

// Add appends one span. An empty spanID mints a fresh one; an empty
// parentID marks a root. The span id actually used is returned so
// children can link to it.
func (f *Flight) Add(parentID, spanID, name string, start, dur time.Duration, attrs ...Attr) string {
	if spanID == "" {
		spanID = mintID()
	}
	var as []Attr
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	f.spans = append(f.spans, FlightSpan{
		SpanID:   spanID,
		ParentID: parentID,
		Name:     name,
		StartNS:  int64(start),
		DurNS:    int64(dur),
		Attrs:    as,
	})
	return spanID
}

// Spans returns the assembled tree in insertion order (parents before
// children).
func (f *Flight) Spans() []FlightSpan {
	return f.spans
}

// mintID generates a span id for spans that never crossed a
// process boundary and therefore never needed one until assembly.
func mintID() string {
	var b [8]byte
	for isZero(b[:]) {
		fillRand(b[:])
	}
	return hex.EncodeToString(b[:])
}
