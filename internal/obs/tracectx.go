package obs

import (
	"context"
	"encoding/hex"
	rand "math/rand/v2"
	"strings"
)

// Cross-process propagation headers. Every HTTP hop in the serving
// tier uses exactly these names — the metrichygiene analyzer rejects
// string literals spelling them anywhere else, so a renamed header can
// never silently fork the wire protocol.
const (
	// HeaderRequestID carries the caller-visible request id end to end:
	// client → coordinator → every shard/replica attempt. Shard-side
	// access logs include it, so cross-process log joins work even for
	// queries whose trace was never sampled.
	HeaderRequestID = "X-Request-ID"
	// HeaderTraceparent carries the trace context in the W3C trace
	// context wire format: version "00", a 16-byte trace id, the 8-byte
	// span id of the sender (the parent of everything the receiver
	// records), and a flags byte whose low bit is the sampling decision.
	HeaderTraceparent = "Traceparent"
)

// traceparent wire constants: "00-<32 hex>-<16 hex>-<2 hex>".
const (
	traceparentVersion = "00"
	traceparentLen     = 2 + 1 + 32 + 1 + 16 + 1 + 2
	flagSampled        = 0x01
)

// TraceContext identifies one query's position in a distributed
// trace: which trace it belongs to, which span is the current parent,
// and whether the query was head-sampled (the sampling bit). The zero
// value is invalid — contexts come from NewTraceContext (minting a
// root at the edge) or Child (deriving a new span id for a leg,
// attempt, or probe). The bit changes nothing a reply carries: stage
// times always flow, and every retained record gets the same flight.
// It is one retention reason ("sampled") beside the tail rules.
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Sampled bool
}

// NewTraceContext mints a fresh root: a new trace id and a new root
// span id. Only the serving edge (the process that received the query
// from outside) mints roots; interior layers must derive via Child —
// the ctxflow analyzer enforces this for the shard layer.
func NewTraceContext(sampled bool) TraceContext {
	var t TraceContext
	t.Sampled = sampled
	for isZero(t.TraceID[:]) {
		fillRand(t.TraceID[:])
	}
	for isZero(t.SpanID[:]) {
		fillRand(t.SpanID[:])
	}
	return t
}

// Child derives the context for one unit of downstream work — a shard
// leg, a retry or hedge attempt, a health probe — keeping the trace id
// and sampling decision but minting a fresh span id. The child's span
// id is what crosses the wire, so everything the remote side records
// hangs off exactly that attempt.
func (t TraceContext) Child() TraceContext {
	c := t
	for c.SpanID == t.SpanID || isZero(c.SpanID[:]) {
		fillRand(c.SpanID[:])
	}
	return c
}

// Valid reports whether the context carries real ids (the W3C format
// reserves all-zero ids as invalid).
func (t TraceContext) Valid() bool {
	return !isZero(t.TraceID[:]) && !isZero(t.SpanID[:])
}

// Traceparent renders the context in the W3C wire format.
func (t TraceContext) Traceparent() string {
	var b strings.Builder
	b.Grow(traceparentLen)
	b.WriteString(traceparentVersion)
	b.WriteByte('-')
	b.WriteString(t.TraceIDString())
	b.WriteByte('-')
	b.WriteString(t.SpanIDString())
	b.WriteByte('-')
	if t.Sampled {
		b.WriteString("01")
	} else {
		b.WriteString("00")
	}
	return b.String()
}

// TraceIDString is the 32-hex-char trace id.
func (t TraceContext) TraceIDString() string { return hex.EncodeToString(t.TraceID[:]) }

// SpanIDString is the 16-hex-char span id.
func (t TraceContext) SpanIDString() string { return hex.EncodeToString(t.SpanID[:]) }

// ParseTraceparent parses the W3C wire format produced by
// Traceparent. Unknown versions, malformed fields (uppercase hex
// included: the format's digits are lowercase), and all-zero ids are
// rejected (ok=false) — a bad header means "start a fresh trace",
// never an error to the caller.
func ParseTraceparent(s string) (TraceContext, bool) {
	var t TraceContext
	if len(s) != traceparentLen {
		return t, false
	}
	if s[0:2] != traceparentVersion || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return t, false
	}
	if strings.ContainsAny(s, "ABCDEF") { // hex.Decode would take them
		return t, false
	}
	if _, err := hex.Decode(t.TraceID[:], []byte(s[3:35])); err != nil {
		return t, false
	}
	if _, err := hex.Decode(t.SpanID[:], []byte(s[36:52])); err != nil {
		return t, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return t, false
	}
	t.Sampled = flags[0]&flagSampled != 0
	if !t.Valid() {
		return t, false
	}
	return t, true
}

// fillRand fills b with random bytes. math/rand/v2's package-level
// generator is goroutine-safe and never errors; trace ids need to be
// unique, not unguessable.
func fillRand(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := rand.Uint64()
		for j := i; j < len(b) && j < i+8; j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Context plumbing. The request id and trace context ride the
// context.Context from the serving edge through the coordinator and
// replica sets to every outbound HTTP call; they live here (not in the
// server package) because the shard layer must read them without
// importing the server.

type traceKey struct{}
type requestIDKey struct{}

// ContextWithTrace returns a context carrying tc.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

// TraceFromContext returns the trace context the request is running
// under, if any.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// ContextWithRequestID returns a context carrying the request id.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFromContext returns the request id, or "" when the context
// does not carry one.
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
