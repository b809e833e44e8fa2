package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSpanJSONRoundTrip(t *testing.T) {
	spans := []Span{
		NewSpan("probe", 3*time.Microsecond, 2*time.Microsecond, []Attr{{Key: "fn", Val: 7}}),
		NewSpan("merge", 5*time.Microsecond, time.Microsecond, nil),
	}

	data, err := json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "probe" || back[1].Name != "merge" {
		t.Fatalf("round trip %+v", back)
	}
	if v, ok := back[0].Attr("fn"); !ok || v != 7 {
		t.Fatalf("attr lost in round trip: %d, %v", v, ok)
	}
	if back[0].Start != spans[0].Start || back[0].Dur != spans[0].Dur {
		t.Fatalf("timing %v+%v != %v+%v", back[0].Start, back[0].Dur, spans[0].Start, spans[0].Dur)
	}
	// Attribute-less spans serialize without an attrs key.
	one, err := json.Marshal(back[1])
	if err != nil {
		t.Fatal(err)
	}
	if string(one) != `{"name":"merge","start_ns":5000,"dur_ns":1000}` {
		t.Fatalf("span JSON %s", one)
	}
}
