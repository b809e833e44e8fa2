package server

import "net/http"

// Registry rows with catalog names and enum-valued labels; a JSON-only
// row has no name.
func registryRows(outcome string) []metricRow {
	fam := metricRow{name: "ndss_requests_total", typ: "counter"}
	return []metricRow{
		{name: "go_goroutines", typ: "gauge", val: 1},
		{val: 2},
		fam.series(labelPairs("endpoint", "search", "outcome", outcome), 3),
		{name: "ndss_index_info", labels: `build_id="b",k="4"`, val: 1},
	}
}

// The sanctioned handler shape: admit, then one deferred observation.
func (s *server) serveDeferred(w http.ResponseWriter) {
	if !s.admit() {
		http.Error(w, "busy", http.StatusServiceUnavailable)
		return
	}
	ok := true
	defer s.met.observe(ok)
	w.WriteHeader(http.StatusOK)
}

// An inline observation immediately before return is the cache-hit
// fast path.
func (s *server) serveCacheHit(hit bool) {
	if !s.admit() {
		return
	}
	if hit {
		s.met.observe(true)
		return
	}
	defer s.met.observe(false)
}
