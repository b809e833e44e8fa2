package server

// The /metrics encoder over one scrape's rows: the Prometheus text
// exposition (version 0.0.4, written by hand against the format spec —
// the repo is dependency-free — and validated in tests by a
// line-format checker).

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"ndss/internal/obs"
)

// promContentType is the exposition content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// exposition renders the rows as exposition lines, each family's
// series together under one HELP/TYPE header, families in the order
// they first appear. Histograms turn their per-bucket counts into the
// cumulative `le` series Prometheus requires. It sorts rows in place.
func exposition(rows []metricRow) []byte {
	var b []byte
	rank := map[string]int{}
	for _, r := range rows {
		if _, ok := rank[r.name]; !ok {
			rank[r.name] = len(rank)
		}
	}
	slices.SortStableFunc(rows, func(x, y metricRow) int { return rank[x.name] - rank[y.name] })
	family := ""
	for _, r := range rows {
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
				le := labelPairs("le", upperBound(i))
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

// upperBound formats histogram bucket i's upper bound in seconds,
// "+Inf" for the last bucket.
func upperBound(i int) string {
	if i == len(obs.LatencyBucketsMS) {
		return "+Inf"
	}
	return strconv.FormatFloat(obs.LatencyBucketsMS[i]/1000, 'g', -1, 64)
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
	}
	panic(fmt.Sprintf("server: metric %s has a %T value", r.name, r.val))
}
