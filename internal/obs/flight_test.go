package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestFlightAssembly(t *testing.T) {
	var f Flight
	root := f.Add("", "r0", "search", 0, 100*time.Millisecond)
	if root != "r0" {
		t.Fatalf("Add kept spanID: got %q", root)
	}
	leg := f.Add(root, "", "shard", 2*time.Millisecond, 90*time.Millisecond, Attr{Key: "shard", Val: 1})
	if leg == "" {
		t.Fatal("Add did not mint a span id")
	}

	// A stage span under the leg, its attrs from a slice the caller
	// reuses afterwards.
	attrs := []Attr{{Key: "io_bytes", Val: 4096}}
	f.Add(leg, "", "gather", 12*time.Millisecond, 3*time.Millisecond, attrs...)
	attrs[0].Val = 0
	f.Add(leg, "", "sketch", 10*time.Millisecond, time.Millisecond)

	spans := f.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]FlightSpan{}
	ids := map[string]bool{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.SpanID == "" || ids[sp.SpanID] {
			t.Fatalf("span %q has empty or duplicate id %q", sp.Name, sp.SpanID)
		}
		ids[sp.SpanID] = true
	}
	// Every non-root parent must exist in the tree.
	for _, sp := range spans {
		if sp.ParentID == "" {
			if sp.Name != "search" {
				t.Fatalf("unexpected root %q", sp.Name)
			}
			continue
		}
		if !ids[sp.ParentID] {
			t.Fatalf("span %q has dangling parent %q", sp.Name, sp.ParentID)
		}
	}
	// Children hang off the leg at their own offsets, with durations
	// and a copy of their attrs.
	sk := byName["sketch"]
	if sk.ParentID != leg || sk.StartNS != int64(10*time.Millisecond) || sk.DurNS != int64(time.Millisecond) || sk.Attrs != nil {
		t.Fatalf("sketch added wrong: %+v", sk)
	}
	ga := byName["gather"]
	if ga.ParentID != leg || ga.StartNS != int64(12*time.Millisecond) {
		t.Fatalf("gather added wrong: %+v", ga)
	}
	if len(ga.Attrs) != 1 || ga.Attrs[0].Key != "io_bytes" || ga.Attrs[0].Val != 4096 {
		t.Fatalf("gather's io_bytes attr aliases the caller's slice: %+v", ga.Attrs)
	}
}

func TestFlightSpanJSON(t *testing.T) {
	var f Flight
	root := f.Add("", "aa11", "q", time.Millisecond, 2*time.Millisecond)
	f.Add(root, "bb22", "leg", time.Millisecond, time.Millisecond, Attr{Key: "shard", Val: 0})
	raw, err := json.Marshal(f.Spans())
	if err != nil {
		t.Fatal(err)
	}
	var back []FlightSpan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip diverged: %s", raw)
	}
	if got, want := back[0], f.Spans()[0]; got.SpanID != want.SpanID || got.ParentID != want.ParentID ||
		got.Name != want.Name || got.StartNS != want.StartNS || got.DurNS != want.DurNS {
		t.Fatalf("root diverged: got %+v want %+v", got, want)
	}
	if back[1].ParentID != "aa11" || len(back[1].Attrs) != 1 || back[1].Attrs[0].Key != "shard" {
		t.Fatalf("child lost fields: %+v", back[1])
	}
}
