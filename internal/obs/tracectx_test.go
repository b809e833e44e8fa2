package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		tc := NewTraceContext(sampled)
		if !tc.Valid() {
			t.Fatalf("NewTraceContext produced an invalid context: %+v", tc)
		}
		wire := tc.Traceparent()
		if len(wire) != traceparentLen {
			t.Fatalf("traceparent %q: len %d, want %d", wire, len(wire), traceparentLen)
		}
		if !strings.HasPrefix(wire, "00-") {
			t.Fatalf("traceparent %q: want version 00", wire)
		}
		got, ok := ParseTraceparent(wire)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) rejected its own output", wire)
		}
		if got != tc {
			t.Fatalf("round trip: got %+v, want %+v", got, tc)
		}
		if got.Sampled != sampled {
			t.Fatalf("sampling bit lost: %q", wire)
		}
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := NewTraceContext(true).Traceparent()
	bad := []string{
		"",
		"00",
		valid[:len(valid)-1],                // truncated
		valid + "0",                         // too long
		"01" + valid[2:],                    // unknown version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("z", 32) + valid[35:],      // non-hex trace id
		"00-" + strings.Repeat("0", 32) + valid[35:],      // all-zero trace id
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // all-zero span id
		valid[:53] + "zz", // non-hex flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A", // uppercase hex
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) = ok, want rejection", s)
		}
	}
}

func TestChildKeepsTraceMintsSpan(t *testing.T) {
	root := NewTraceContext(true)
	seen := map[string]bool{root.SpanIDString(): true}
	for i := 0; i < 64; i++ {
		c := root.Child()
		if c.TraceID != root.TraceID {
			t.Fatalf("child %d changed the trace id", i)
		}
		if !c.Sampled {
			t.Fatalf("child %d dropped the sampling bit", i)
		}
		if seen[c.SpanIDString()] {
			t.Fatalf("child %d reused span id %s", i, c.SpanIDString())
		}
		seen[c.SpanIDString()] = true
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceFromContext(ctx); ok {
		t.Fatal("empty context reported a trace")
	}
	if id := RequestIDFromContext(ctx); id != "" {
		t.Fatalf("empty context reported request id %q", id)
	}
	tc := NewTraceContext(false)
	ctx = ContextWithTrace(ctx, tc)
	ctx = ContextWithRequestID(ctx, "req-1")
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFromContext = %+v, %v; want %+v", got, ok, tc)
	}
	if id := RequestIDFromContext(ctx); id != "req-1" {
		t.Fatalf("RequestIDFromContext = %q, want req-1", id)
	}
	// An invalid context stored by a buggy caller reads back as absent.
	if _, ok := TraceFromContext(ContextWithTrace(context.Background(), TraceContext{})); ok {
		t.Fatal("zero trace context reported as valid")
	}
}
