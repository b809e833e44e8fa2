package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ndss/internal/search"
	"ndss/internal/wire"
)

// promMetricName matches valid exposition metric names.
var promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

func (s promSample) labelsWithout(key string) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if k != key {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, s.labels[k])
	}
	return b.String()
}

// parsePromExposition is a strict line-format checker for the
// Prometheus text exposition format 0.0.4. It fails the test on any
// malformed line, sample without a preceding # TYPE, invalid metric
// name, or unparsable value, and verifies histogram invariants:
// cumulative non-decreasing buckets, a trailing +Inf bucket, and
// _count equal to the +Inf bucket.
func parsePromExposition(t *testing.T, body string) []promSample {
	t.Helper()
	types := map[string]string{} // base metric name -> declared type
	var samples []promSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if !promMetricName.MatchString(fields[2]) {
				t.Fatalf("line %d: bad metric name %q", ln+1, fields[2])
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: bad type %q", ln+1, fields[3])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		s := parsePromSample(t, ln+1, line)
		base := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(s.name, suffix); ok && types[cut] == "histogram" {
				base = cut
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, s.name)
		}
		samples = append(samples, s)
	}

	checkPromHistograms(t, types, samples)
	return samples
}

func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator in %q", ln, line)
	} else {
		s.name = rest[:i]
		if !promMetricName.MatchString(s.name) {
			t.Fatalf("line %d: bad metric name %q", ln, s.name)
		}
		if rest[i] == '{' {
			rest = rest[i+1:]
			for {
				eq := strings.Index(rest, "=")
				if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
					t.Fatalf("line %d: malformed labels in %q", ln, line)
				}
				key := rest[:eq]
				rest = rest[eq+2:]
				// Scan the quoted value honoring \" escapes.
				var val strings.Builder
				j := 0
				for ; j < len(rest); j++ {
					if rest[j] == '\\' && j+1 < len(rest) {
						j++
						switch rest[j] {
						case 'n':
							val.WriteByte('\n')
						default:
							val.WriteByte(rest[j])
						}
						continue
					}
					if rest[j] == '"' {
						break
					}
					val.WriteByte(rest[j])
				}
				if j == len(rest) {
					t.Fatalf("line %d: unterminated label value in %q", ln, line)
				}
				s.labels[key] = val.String()
				rest = rest[j+1:]
				if strings.HasPrefix(rest, ",") {
					rest = rest[1:]
					continue
				}
				if strings.HasPrefix(rest, "} ") {
					rest = rest[2:]
					break
				}
				t.Fatalf("line %d: malformed label list in %q", ln, line)
			}
		} else {
			rest = rest[i+1:]
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("line %d: bad value in %q: %v", ln, line, err)
	}
	s.value = v
	return s
}

// checkPromHistograms verifies bucket monotonicity and _count
// consistency for every histogram series in the exposition.
func checkPromHistograms(t *testing.T, types map[string]string, samples []promSample) {
	t.Helper()
	type series struct {
		buckets []promSample
		count   float64
		hasCnt  bool
	}
	hist := map[string]*series{} // "name|labels-without-le" -> series
	get := func(name string, s promSample) *series {
		key := name + "|" + s.labelsWithout("le")
		if hist[key] == nil {
			hist[key] = &series{}
		}
		return hist[key]
	}
	for _, s := range samples {
		if cut, ok := strings.CutSuffix(s.name, "_bucket"); ok && types[cut] == "histogram" {
			get(cut, s).buckets = append(get(cut, s).buckets, s)
		} else if cut, ok := strings.CutSuffix(s.name, "_count"); ok && types[cut] == "histogram" {
			sr := get(cut, s)
			sr.count, sr.hasCnt = s.value, true
		}
	}
	for key, sr := range hist {
		if len(sr.buckets) == 0 {
			t.Errorf("histogram series %s has no buckets", key)
			continue
		}
		prevLE, prevCum := -1.0, -1.0
		for i, b := range sr.buckets {
			le := b.labels["le"]
			ub := 0.0
			if le == "+Inf" {
				if i != len(sr.buckets)-1 {
					t.Errorf("series %s: +Inf bucket not last", key)
				}
				ub = prevLE + 1
			} else {
				var err error
				ub, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("series %s: bad le %q", key, le)
				}
			}
			if ub <= prevLE {
				t.Errorf("series %s: le bounds not increasing at %q", key, le)
			}
			if b.value < prevCum {
				t.Errorf("series %s: cumulative count decreases at le=%q (%v < %v)", key, le, b.value, prevCum)
			}
			prevLE, prevCum = ub, b.value
		}
		if last := sr.buckets[len(sr.buckets)-1]; last.labels["le"] != "+Inf" {
			t.Errorf("series %s: missing +Inf bucket", key)
		} else if sr.hasCnt && sr.count != last.value {
			t.Errorf("series %s: _count %v != +Inf bucket %v", key, sr.count, last.value)
		}
	}
}

// findSample returns the first sample of name whose labels include
// labels.
func findSample(samples []promSample, name string, labels map[string]string) (promSample, bool) {
	for _, s := range samples {
		if s.matches(name, labels) {
			return s, true
		}
	}
	return promSample{}, false
}

// sumSamples adds up every sample of name whose labels include labels
// (with nil labels, the whole family).
func sumSamples(samples []promSample, name string, labels map[string]string) int64 {
	var sum float64
	for _, s := range samples {
		if s.matches(name, labels) {
			sum += s.value
		}
	}
	return int64(sum)
}

func (s promSample) matches(name string, labels map[string]string) bool {
	if s.name != name {
		return false
	}
	for k, v := range labels {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// TestMetricsPrometheusExposition runs a small workload and validates
// the whole /metrics exposition with the line-format checker, then
// spot-checks the metrics the workload must have moved — including a
// nonzero per-stage histogram for all six pipeline stages.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, engine, q := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Workload: two identical searches (one cached), a verified search,
	// a top-k, and an explain.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/search",
			wire.Request{Tokens: q, Theta: 0.5, PrefixFilter: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/search",
		wire.Request{Tokens: q, Theta: 0.5, PrefixFilter: true, Verify: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verified search: %d (%s)", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/search/topk",
		wire.Request{Tokens: q, N: 3, FloorTheta: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk: %d (%s)", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/explain",
		wire.Request{Tokens: q, Theta: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d (%s)", resp.StatusCode, body)
	}

	awaitRequests(t, ts, 5)
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("exposition content type = %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parsePromExposition(t, string(raw))

	want := []struct {
		name   string
		labels map[string]string
		min    float64
	}{
		{"ndss_requests_total", map[string]string{"endpoint": "search", "outcome": "ok"}, 2},
		{"ndss_requests_total", map[string]string{"endpoint": "search", "outcome": "cached"}, 1},
		{"ndss_requests_total", map[string]string{"endpoint": "topk", "outcome": "ok"}, 1},
		{"ndss_requests_total", map[string]string{"endpoint": "explain", "outcome": "ok"}, 1},
		{"ndss_request_duration_seconds_count", map[string]string{"endpoint": "search", "outcome": "ok"}, 2},
		{"ndss_cache_hits_total", nil, 1},
		{"ndss_index_texts", nil, 1},
		{"go_goroutines", nil, 1},
		{"ndss_uptime_seconds", nil, 0},
	}
	for _, w := range want {
		s, ok := findSample(samples, w.name, w.labels)
		if !ok {
			t.Errorf("missing sample %s %v", w.name, w.labels)
			continue
		}
		if s.value < w.min {
			t.Errorf("%s %v = %v, want >= %v", w.name, w.labels, s.value, w.min)
		}
	}

	// Acceptance: per-stage histograms are nonzero for all six stages.
	for _, stage := range search.StageNames {
		cnt, ok := findSample(samples, "ndss_stage_duration_seconds_count", map[string]string{"stage": stage})
		if !ok || cnt.value == 0 {
			t.Errorf("stage %q histogram count = %v (ok=%v), want > 0", stage, cnt.value, ok)
		}
		sum, ok := findSample(samples, "ndss_stage_duration_seconds_sum", map[string]string{"stage": stage})
		if !ok || sum.value <= 0 {
			t.Errorf("stage %q histogram sum = %v (ok=%v), want > 0", stage, sum.value, ok)
		}
	}

	// Index info carries the build id label.
	if _, ok := findSample(samples, "ndss_index_info", map[string]string{"k": "8", "t": "5"}); !ok {
		t.Error("missing ndss_index_info{k=\"8\",t=\"5\"}")
	}
}

// TestMetricsContentNegotiation: the exposition is the only rendering;
// a client that asks for JSON gets it too.
func TestMetricsContentNegotiation(t *testing.T) {
	_, engine, _ := testFixture(t)
	srv := New(engine, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	mresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("content type = %q, want %q", ct, promContentType)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findSample(parsePromExposition(t, string(raw)), "ndss_index_info", nil); !ok {
		t.Error("Accept: application/json scrape lacks ndss_index_info")
	}
}

// TestHistogramConcurrentConsistency hammers one latency cell and the
// full metrics scrape from concurrent observers while readers load
// them; run under -race in CI. The count must always equal the bucket
// sum. (The histogram's own edge and consistency tests live with it in
// internal/obs.)
func TestHistogramConcurrentConsistency(t *testing.T) {
	srv := New(newStubBackend(t, "b", 1, false), Config{})
	m := &srv.met
	const writers, perWriter = 8, 500
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := m.latency[epSearch][outOK].Load()
			var sum int64
			for _, b := range h.Buckets {
				sum += b
			}
			if h.Count != sum {
				t.Errorf("count %d != bucket sum %d", h.Count, sum)
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.scrape()
		}
	}()

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			st := &search.Stats{Matches: 1, StageTimes: search.StageTimes{Sketch: time.Microsecond}}
			for i := 0; i < perWriter; i++ {
				m.observe(epSearch, outOK, time.Duration(i%7)*time.Millisecond)
				m.recordStats(st)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	count := m.latency[epSearch][outOK].Load().Count
	if want := int64(writers * perWriter); count != want {
		t.Fatalf("final count %d, want %d", count, want)
	}
	scount := m.stages[0].Load().Count
	if want := int64(writers * perWriter); scount != want {
		t.Fatalf("final stage count %d, want %d", scount, want)
	}
}
