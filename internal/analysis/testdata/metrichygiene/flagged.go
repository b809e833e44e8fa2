package server

import (
	"fmt"
	"net/http"
)

// Registry rows are held to the same catalog: a row's name, its label
// keys and its label values, however the label string is built.
func registryBadRows(r *http.Request, outcome string) []metricRow {
	fam := metricRow{name: "ndss_Requests_total", typ: "counter"} // want `metric name "ndss_Requests_total" does not match the catalog shape`
	label := labelPairs("path", r.URL.Path)                       // want `label value derived from request input \(r\)`
	return []metricRow{
		{name: "requests_total", typ: "counter", val: 1},                                // want `metric name "requests_total" does not match the catalog shape`
		{name: "ndss_requests_total", labels: `Outcome="ok"`, val: 1},                   // want `label key "Outcome" is not snake_case`
		{name: "ndss_requests_total", labels: labelPairs("endPoint", "search"), val: 1}, // want `label key "endPoint" is not snake_case`
		{name: "ndss_requests_total", labels: label, val: 1},
		fam.series(fmt.Sprintf(`Outcome=%q`, outcome), 1), // want `label key "Outcome" is not snake_case`
		fam.series(r.Header.Get("Accept"), 1),             // want `label value derived from request input \(r\)`
	}
}

// Observing latency without admitting breaks the exactly-once pairing
// with the in-flight gate.
func (s *server) serveUnadmitted(ok bool) {
	defer s.met.observe(ok) // want `latency observed outside an admission-guarded function`
}

// An inline observe not immediately followed by return double-counts
// once the deferred observation also fires.
func (s *server) serveDoubleCount(w http.ResponseWriter) {
	if !s.admit() {
		return
	}
	s.met.observe(true) // want `inline latency observation must be immediately followed by return`
	w.WriteHeader(http.StatusOK)
}

// Two deferred observations can both fire; the diagnostic lands on the
// first observe site.
func (s *server) serveTwoDeferred() {
	if !s.admit() {
		return
	}
	defer s.met.observe(true) // want `multiple deferred latency observations in one function`
	defer s.met.observe(false)
}
