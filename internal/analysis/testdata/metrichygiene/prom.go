// Fixture scaffolding mirroring internal/server's exposition plumbing:
// a promWriter with emission methods, the registry's row type and label
// builder, a metrics struct with the exactly-once observe, and the
// admission gate.
package server

import "strings"

type promWriter struct {
	b strings.Builder
}

func (w *promWriter) header(name, help, typ string) {
	w.b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n")
}

func (w *promWriter) sample(name, labels string, v float64) {
	w.b.WriteString(name + "{" + labels + "} ...\n")
	_ = v
}

func (w *promWriter) histogramSamples(name, labels string, buckets []float64) {
	w.b.WriteString(name + "{" + labels + "}\n")
	_ = buckets
}

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
