package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// Serialized spans can come from older tools or other processes; the
// decoder must clamp attributes to the inline capacity instead of
// growing the span.
func TestSpanJSONAttrTruncation(t *testing.T) {
	in := `{"name":"probe","start_ns":10,"dur_ns":20,"attrs":[` +
		`{"key":"a","val":1},{"key":"b","val":2},{"key":"c","val":3},{"key":"d","val":4}]}`
	var s Span
	if err := json.Unmarshal([]byte(in), &s); err != nil {
		t.Fatal(err)
	}
	attrs := s.Attrs()
	if len(attrs) != maxAttrs {
		t.Fatalf("kept %d attrs, inline capacity is %d", len(attrs), maxAttrs)
	}
	// The first attributes win: producers annotate most-important-first.
	if attrs[0] != (Attr{Key: "a", Val: 1}) || attrs[1] != (Attr{Key: "b", Val: 2}) {
		t.Fatalf("truncation reordered attrs: %+v", attrs)
	}
	if _, ok := s.Attr("c"); ok {
		t.Fatal("attr beyond capacity survived decode")
	}
	if s.Start != 10*time.Nanosecond || s.Dur != 20*time.Nanosecond {
		t.Fatalf("timing fields lost: %+v", s)
	}
}

// Exactly at capacity everything survives a full round trip.
func TestSpanJSONRoundTripAtCapacity(t *testing.T) {
	var tr Trace
	tr.Reset()
	id := tr.Start("gather")
	tr.Annotate(id, "fn", 3)
	tr.Annotate(id, "len", 99)
	tr.Annotate(id, "extra", 7) // beyond capacity: dropped at annotate time
	tr.End(id)

	data, err := json.Marshal(tr.Spans()[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "extra") {
		t.Fatalf("over-capacity attr leaked into JSON: %s", data)
	}
	var back Span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Attr("fn"); !ok || v != 3 {
		t.Fatalf("fn attr lost: %d %v", v, ok)
	}
	if v, ok := back.Attr("len"); !ok || v != 99 {
		t.Fatalf("len attr lost: %d %v", v, ok)
	}
}

// A trace pushed past MaxSpans drops the excess; what remains still
// serializes and decodes span for span.
func TestTraceOverflowSerializes(t *testing.T) {
	var tr Trace
	tr.Reset()
	const extra = 37
	for i := 0; i < MaxSpans+extra; i++ {
		tr.End(tr.Start("s"))
	}
	if tr.Len() != MaxSpans {
		t.Fatalf("trace holds %d spans, cap is %d", tr.Len(), MaxSpans)
	}
	data, err := json.Marshal(tr.Snapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != MaxSpans {
		t.Fatalf("round trip changed span count: %d", len(back))
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Reset left len=%d", tr.Len())
	}
}

// Malformed input errors out instead of half-filling the span.
func TestSpanJSONMalformed(t *testing.T) {
	for _, in := range []string{
		`{"name":"x","start_ns":"notanumber"}`,
		`{"name":"x","attrs":{"key":"a"}}`, // attrs must be a list
		`[1,2,3]`,
		`{`,
	} {
		var s Span
		if err := json.Unmarshal([]byte(in), &s); err == nil {
			t.Errorf("decoded malformed span %s as %+v", in, s)
		}
	}
}
