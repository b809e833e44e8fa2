package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestTraceBasic(t *testing.T) {
	var tr Trace
	tr.Reset()
	id := tr.Start("sketch")
	time.Sleep(time.Millisecond)
	d := tr.End(id)
	if d <= 0 {
		t.Fatalf("End returned %v, want > 0", d)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	sp := tr.Spans()[0]
	if sp.Name != "sketch" || sp.Dur != d || sp.Start < 0 {
		t.Fatalf("span %+v, want name=sketch dur=%v", sp, d)
	}
	if got := tr.Dur("sketch"); got != d {
		t.Fatalf("Dur(sketch) = %v, want %v", got, d)
	}
	if got := tr.Dur("absent"); got != 0 {
		t.Fatalf("Dur(absent) = %v, want 0", got)
	}
}

func TestTraceAnnotate(t *testing.T) {
	var tr Trace
	tr.Reset()
	id := tr.Start("probe")
	tr.Annotate(id, "fn", 3)
	tr.Annotate(id, "text", 42)
	tr.Annotate(id, "overflow", 1) // beyond inline capacity: dropped
	tr.End(id)
	sp := tr.Spans()[0]
	if len(sp.Attrs()) != 2 {
		t.Fatalf("attrs %v, want 2", sp.Attrs())
	}
	if v, ok := sp.Attr("text"); !ok || v != 42 {
		t.Fatalf("Attr(text) = %d, %v", v, ok)
	}
	if _, ok := sp.Attr("overflow"); ok {
		t.Fatal("overflow attribute retained past capacity")
	}
}

func TestTraceCap(t *testing.T) {
	var tr Trace
	tr.Reset()
	for i := 0; i < MaxSpans+10; i++ {
		id := tr.Start("s")
		tr.End(id)
	}
	if tr.Len() != MaxSpans {
		t.Fatalf("Len = %d, want %d", tr.Len(), MaxSpans)
	}
	// None flows through End/Annotate without effect.
	if d := tr.End(None); d != 0 {
		t.Fatalf("End(None) = %v", d)
	}
	tr.Annotate(None, "k", 1)

	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("after Reset: len=%d", tr.Len())
	}
}

func TestTraceReuseNoAlloc(t *testing.T) {
	var tr Trace
	// Warm the span slice to capacity once.
	tr.Reset()
	for i := 0; i < 16; i++ {
		tr.End(tr.Start("s"))
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Reset()
		for i := 0; i < 16; i++ {
			id := tr.Start("s")
			tr.Annotate(id, "k", 1)
			tr.End(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state trace allocates %.1f per run, want 0", allocs)
	}
}

func TestTraceSnapshot(t *testing.T) {
	var tr Trace
	tr.Reset()
	tr.End(tr.Start("a"))
	open := tr.Start("b") // left open
	snap := tr.Snapshot(nil)
	if len(snap) != 2 {
		t.Fatalf("snapshot %d spans, want 2", len(snap))
	}
	if snap[1].Dur != -1 {
		t.Fatalf("open span Dur = %v, want -1", snap[1].Dur)
	}
	tr.End(open)
	// Snapshot is a copy: resetting the trace must not change it.
	tr.Reset()
	if snap[0].Name != "a" {
		t.Fatalf("snapshot mutated: %+v", snap[0])
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	var tr Trace
	tr.Reset()
	id := tr.Start("probe")
	tr.Annotate(id, "fn", 7)
	tr.End(id)
	tr.End(tr.Start("merge"))

	data, err := json.Marshal(tr.Spans())
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
	if back[0].Dur != tr.Spans()[0].Dur {
		t.Fatalf("dur %v != %v", back[0].Dur, tr.Spans()[0].Dur)
	}
	// Attribute-less spans serialize without an attrs key.
	one, err := json.Marshal(back[1])
	if err != nil {
		t.Fatal(err)
	}
	if string(one) != `{"name":"merge","start_ns":`+itoa(int64(back[1].Start))+`,"dur_ns":`+itoa(int64(back[1].Dur))+`}` {
		t.Fatalf("span JSON %s", one)
	}
}

func itoa(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func BenchmarkTraceStageSpans(b *testing.B) {
	var tr Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		for _, name := range [...]string{"sketch", "plan", "gather", "count", "merge", "verify"} {
			tr.End(tr.Start(name))
		}
	}
}

// Len reports the number of recorded spans.
func (t *Trace) Len() int { return len(t.spans) }

// Spans returns the recorded spans as a live view, valid until the next
// Reset. Callers that retain spans past the query must use Snapshot.
func (t *Trace) Spans() []Span { return t.spans }

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
