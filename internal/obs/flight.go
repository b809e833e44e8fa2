package obs

import (
	"encoding/hex"
	"time"
)

// Flight assembly: one query's spans from every process it touched,
// stitched into a single tree. The engine's span list stays flat and
// id-free (only a traced query builds one, once, at its end); ids and
// parent links are attached here, after the query has completed, when
// the serving edge grafts each leg's remote spans under the attempt
// that carried them.

// FlightSpan is one node of an assembled cross-process trace tree.
// Start is relative to the flight's root span (the query's arrival at
// the serving edge); remote spans are shifted by their carrying
// attempt's start when grafted, so timings from different processes
// share one axis.
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

// Graft attaches a flat span list recorded by another clock domain —
// a remote shard's span list, or the local engine's — as children
// of parentID, shifting every start by offset onto the flight's time
// axis. Names, durations, and attrs (io_bytes included) survive
// verbatim.
func (f *Flight) Graft(parentID string, spans []Span, offset time.Duration) {
	for i := range spans {
		sp := &spans[i]
		f.Add(parentID, "", sp.Name, sp.Start+offset, sp.Dur, sp.Attrs()...)
	}
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
