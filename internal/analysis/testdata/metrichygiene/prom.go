// Fixture scaffolding mirroring internal/server's exposition plumbing:
// the registry's row type and label builder, a metrics struct with the
// exactly-once observe, and the admission gate.
package server

import "strings"

type metricRow struct {
	name, typ, help string
	labels          string
	val             any
}

func (r metricRow) series(labels string, val any) metricRow {
	r.labels, r.val = labels, val
	return r
}

func labelPairs(kv ...string) string { return strings.Join(kv, ",") }

type metrics struct {
	count int
}

func (m *metrics) observe(ok bool) {
	m.count++
	_ = ok
}

type server struct {
	met metrics
	sem chan struct{}
}

func (s *server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}
