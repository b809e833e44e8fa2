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
	// Beyond capacity: "extra" is dropped when the span is built.
	sp := NewSpan("gather", 0, time.Millisecond, []Attr{{Key: "fn", Val: 3}, {Key: "len", Val: 99}, {Key: "extra", Val: 7}})

	data, err := json.Marshal(sp)
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
