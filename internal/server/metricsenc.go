package server

// The two /metrics encoders over one scrape's rows: the Prometheus text
// exposition (version 0.0.4, written by hand against the format spec —
// the repo is dependency-free — and validated in tests by a
// line-format checker) and the JSON rendering.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"

	"ndss/internal/obs"
	"ndss/internal/shard"
)

// promContentType is the exposition content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// exposition renders the rows with a name as exposition lines,
// each family's series together under one HELP/TYPE header, families
// in the order they first appear. Histograms turn their per-bucket
// counts into the cumulative `le` series Prometheus requires.
func exposition(rows []metricRow) []byte {
	var b []byte
	rank := map[string]int{}
	var series []metricRow
	for _, r := range rows {
		if r.name == "" {
			continue
		}
		if _, ok := rank[r.name]; !ok {
			rank[r.name] = len(rank)
		}
		series = append(series, r)
	}
	slices.SortStableFunc(series, func(x, y metricRow) int { return rank[x.name] - rank[y.name] })
	family := ""
	for _, r := range series {
		if r.name != family {
			family = r.name
			b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", r.name, r.help, r.name, r.typ)
		}
		switch v := r.val.(type) {
		case nil: // the family declared alone
		case obs.HistogramSnapshot:
			cum := int64(0)
			for i, n := range v.Buckets {
				cum += n
				le := labelPairs("le", upperBound(i, 1000))
				if r.labels != "" {
					le = r.labels + "," + le
				}
				b = appendSample(b, r.name+"_bucket", le, float64(cum))
			}
			b = appendSample(b, r.name+"_sum", r.labels, float64(v.SumNS)/float64(time.Second))
			b = appendSample(b, r.name+"_count", r.labels, float64(v.Count))
		default:
			b = appendSample(b, r.name, r.labels, promValue(r))
		}
	}
	return b
}

func appendSample(b []byte, name, labels string, v float64) []byte {
	if labels != "" {
		name += "{" + labels + "}"
	}
	return fmt.Appendf(b, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

// upperBound formats histogram bucket i's upper bound in units of
// unitMS milliseconds, "+Inf" for the last bucket.
func upperBound(i int, unitMS float64) string {
	if i == len(obs.LatencyBucketsMS) {
		return "+Inf"
	}
	return strconv.FormatFloat(obs.LatencyBucketsMS[i]/unitMS, 'g', -1, 64)
}

// promValue is a row's sample value.
func promValue(r metricRow) float64 {
	switch v := r.val.(type) {
	case int64:
		if r.ns {
			return float64(v) / float64(time.Second)
		}
		return float64(v)
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
		return 0
	case shard.BreakerState:
		return float64(v)
	}
	panic(fmt.Sprintf("server: metric %s has a %T value", r.name, r.val))
}

// jsonObject is an object of the JSON rendering. Its members print in
// sorted key order, as encoding/json prints a map, unless inRowOrder.
type jsonObject struct {
	keys       []string
	vals       map[string]any // *jsonObject, []any or a leaf
	inRowOrder bool
}

// rowOrderObjects are the top-level JSON objects that keep their
// members in row order, the field order of the structs they were first
// rendered from.
var rowOrderObjects = [...]string{"index", "runtime"}

// metricsJSON renders the rows with a path as one JSON object and a
// newline.
func metricsJSON(rows []metricRow) ([]byte, error) {
	root := &jsonObject{vals: map[string]any{}}
	for _, r := range rows {
		if r.path != nil {
			put(root, r.path, jsonValue(r))
		}
	}
	for _, k := range rowOrderObjects {
		if o, ok := root.vals[k].(*jsonObject); ok {
			o.inRowOrder = true
		}
	}
	b, err := json.Marshal(root)
	return append(b, '\n'), err
}

// jsonValue is a row's JSON leaf.
func jsonValue(r metricRow) any {
	switch v := r.val.(type) {
	case nil:
		return &jsonObject{vals: map[string]any{}}
	case obs.HistogramSnapshot:
		return map[string]int64{"count": v.Count, "sum_ns": v.SumNS}
	case shard.BreakerState:
		return v.String()
	}
	return r.val
}

// put stores leaf at path below node and returns node, creating the
// objects and lists on the way. What is already at path stays.
func put(node any, path []any, leaf any) any {
	if len(path) == 0 {
		if node != nil {
			return node
		}
		return leaf
	}
	switch k := path[0].(type) {
	case string:
		o, _ := node.(*jsonObject)
		if o == nil {
			o = &jsonObject{vals: map[string]any{}}
		}
		if _, ok := o.vals[k]; !ok {
			o.keys = append(o.keys, k)
		}
		o.vals[k] = put(o.vals[k], path[1:], leaf)
		return o
	case int:
		l, _ := node.([]any)
		for len(l) <= k {
			l = append(l, nil)
		}
		l[k] = put(l[k], path[1:], leaf)
		return l
	}
	panic(fmt.Sprintf("server: JSON path element %T", path[0]))
}

func (o *jsonObject) MarshalJSON() ([]byte, error) {
	if !o.inRowOrder {
		slices.Sort(o.keys)
	}
	b := []byte{'{'}
	for i, k := range o.keys {
		if i > 0 {
			b = append(b, ',')
		}
		key, _ := json.Marshal(k) // a string always marshals
		v, err := json.Marshal(o.vals[k])
		if err != nil {
			return nil, err
		}
		b = append(append(append(b, key...), ':'), v...)
	}
	return append(b, '}'), nil
}
