package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call across a layer boundary. Spans of one
// request share Req (the X-Request-ID); Parent names the span of the
// same request that caused this one, "" for the client's own span.
// Start and End are nanoseconds since the recorder was made.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing; the untraced run never makes one, and installs no
// decorator that could call it.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// nextID numbers the requests of a run.
func (r *recorder) nextID() int { return int(r.ids.Add(1)) }

// now is the recorder's clock: nanoseconds since it was made.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span that started at start (a now() reading).
func (r *recorder) add(name, req, parent string, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: end})
	r.mu.Unlock()
}

// len is how many spans have been recorded.
func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes the spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// covered returns how much of [lo, hi] the intervals cover, counting
// overlapping intervals once, so parallel children are not added up.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(s span, children []span) time.Duration {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.Start, c.End}
	}
	return s.dur() - time.Duration(covered(s.Start, s.End, ivs))
}

// request is the span tree of one request, one level deep per name.
type request struct {
	byName   map[string]span
	children map[string][]span
}

// groupRequests arranges spans by request id.
func groupRequests(spans []span) map[string]*request {
	out := make(map[string]*request)
	for _, s := range spans {
		rq := out[s.Req]
		if rq == nil {
			rq = &request{byName: make(map[string]span), children: make(map[string][]span)}
			out[s.Req] = rq
		}
		rq.byName[s.Name] = s
		if s.Parent != "" {
			rq.children[s.Parent] = append(rq.children[s.Parent], s)
		}
	}
	return out
}

// self is the self time of the named span, and whether the request has
// one.
func (rq *request) self(name string) (time.Duration, bool) {
	s, ok := rq.byName[name]
	if !ok {
		return 0, false
	}
	return selfTime(s, rq.children[name]), true
}
