// Package obs is a zero-dependency, allocation-light span recorder for
// per-query tracing. A Trace owns a flat list of named spans with
// monotonic start offsets and durations; the query pipeline records one
// span per stage (and, in detailed mode, one per deferred-list probe),
// so every query can report exactly where its time went.
//
// Design constraints, in order:
//
//   - Cheap enough for the default query path: starting and ending a
//     span is two time.Now calls and one in-place append into a slice
//     the owner reuses across queries (no steady-state allocation).
//   - No locks: a Trace belongs to exactly one query at a time, the
//     same ownership discipline the pipeline's queryCtx already has.
//   - Bounded: at most MaxSpans spans are retained per trace; beyond
//     that Start drops the span (and counts the drop) rather than
//     growing without limit on pathological queries.
//
// The package depends only on the standard library and is usable from
// any layer (search pipeline, server, CLIs) without import cycles. It
// also holds the serving tier's one latency histogram (histogram.go).
package obs

import "time"

// MaxSpans bounds the spans retained per trace. Stage spans are few;
// the cap only matters for per-probe spans on adversarial queries.
const MaxSpans = 512

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

// Span is one named, timed region of a trace. Start is the offset from
// the trace's base in monotonic time; Dur is -1 while the span is open.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`

	nattrs int
	attrs  [maxAttrs]Attr
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

// SpanID identifies an open span within its trace. The zero value is
// not valid; Start returns None when the trace is full.
type SpanID int32

// None is the SpanID returned once a trace is full. End and Annotate
// accept it and do nothing, so callers never need to branch.
const None SpanID = -1

// Trace records spans against one monotonic base time. The zero value
// is unusable; call Reset before the first Start. A Trace must not be
// shared between goroutines without external synchronization.
type Trace struct {
	base    time.Time
	spans   []Span
	dropped int
}

// Reset rebases the trace at now and discards recorded spans, retaining
// span capacity so a pooled trace records without allocating.
func (t *Trace) Reset() {
	t.base = time.Now()
	t.spans = t.spans[:0]
	t.dropped = 0
}

// Start opens a named span and returns its id, or None when the trace
// is at MaxSpans (the drop is counted).
func (t *Trace) Start(name string) SpanID {
	if len(t.spans) >= MaxSpans {
		t.dropped++
		return None
	}
	t.spans = append(t.spans, Span{Name: name, Start: time.Since(t.base), Dur: -1})
	return SpanID(len(t.spans) - 1)
}

// Record appends an already-timed span: start is its offset from the
// trace's base and dur its duration. Callers that time work outside the
// trace's own clock — concurrent fan-out legs whose goroutines must not
// touch the trace — measure with NowMono/SinceMono and record after
// joining. Returns the span's id (for Annotate), or None when the trace
// is at MaxSpans (the drop is counted).
func (t *Trace) Record(name string, start, dur time.Duration) SpanID {
	if len(t.spans) >= MaxSpans {
		t.dropped++
		return None
	}
	t.spans = append(t.spans, Span{Name: name, Start: start, Dur: dur})
	return SpanID(len(t.spans) - 1)
}

// End closes the span and returns its duration (0 for None).
func (t *Trace) End(id SpanID) time.Duration {
	if id == None {
		return 0
	}
	sp := &t.spans[id]
	sp.Dur = time.Since(t.base) - sp.Start
	return sp.Dur
}

// Annotate attaches an integer attribute to an open or closed span.
// Attributes beyond the inline capacity are silently dropped.
func (t *Trace) Annotate(id SpanID, key string, val int64) {
	if id == None {
		return
	}
	sp := &t.spans[id]
	if sp.nattrs < maxAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Val: val}
		sp.nattrs++
	}
}

// Len reports the number of recorded spans.
func (t *Trace) Len() int { return len(t.spans) }

// Dropped reports how many Start calls were refused by the MaxSpans cap
// since the last Reset.
func (t *Trace) Dropped() int { return t.dropped }

// Spans returns the recorded spans as a live view, valid until the next
// Reset. Callers that retain spans past the query must use Snapshot.
func (t *Trace) Spans() []Span { return t.spans }

// Snapshot copies the recorded spans, appending into dst (which may be
// nil). Open spans appear with Dur -1.
func (t *Trace) Snapshot(dst []Span) []Span {
	return append(dst[:0], t.spans...)
}

// Dur sums the durations of all closed spans with the given name.
func (t *Trace) Dur(name string) time.Duration {
	var total time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name && t.spans[i].Dur >= 0 {
			total += t.spans[i].Dur
		}
	}
	return total
}
