// Package obs holds the tracing vocabulary shared by every layer: Span,
// one named, timed region of a query with inline integer attributes;
// Flight, the cross-process tree a serving edge assembles from the
// spans each process shipped (flight.go); the W3C trace context that
// carries a query's trace across processes (tracectx.go); and the
// serving tier's one latency histogram (histogram.go).
//
// Spans are plain values. The engine times its stages with its own
// clock and builds a span list only for a traced query
// (search.Options.Trace), so untraced queries write none; a span list
// is a flat, id-free []Span, and ids and parent links are attached
// only when a flight is assembled.
//
// The package depends only on the standard library and is usable from
// any layer (search pipeline, server, CLIs) without import cycles.
package obs

import "time"

// Attr is one integer-valued span attribute (list lengths, byte counts,
// text ids). Values are int64 so byte counts and durations both fit;
// string values are deliberately unsupported to keep spans flat and
// allocation-free.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// maxAttrs is the inline attribute capacity per span. Two is enough for
// every current producer (probe spans carry fn + text id); inline
// storage keeps Span a flat value with no per-span allocation.
const maxAttrs = 2

// Span is one named, timed region of a query. Start is its offset from
// the origin of the list it belongs to (for the engine, the start of
// the query's stage clock); Dur is its duration.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`

	nattrs int
	attrs  [maxAttrs]Attr
}

// NewSpan builds a span carrying attrs. Attributes beyond the inline
// capacity are dropped.
func NewSpan(name string, start, dur time.Duration, attrs []Attr) Span {
	s := Span{Name: name, Start: start, Dur: dur}
	s.nattrs = copy(s.attrs[:], attrs)
	return s
}

// Attrs returns the span's attributes (a view into inline storage).
func (s *Span) Attrs() []Attr { return s.attrs[:s.nattrs] }

// Attr returns the value of the named attribute and whether it is set.
func (s *Span) Attr(key string) (int64, bool) {
	for i := 0; i < s.nattrs; i++ {
		if s.attrs[i].Key == key {
			return s.attrs[i].Val, true
		}
	}
	return 0, false
}
