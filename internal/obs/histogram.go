package obs

import (
	"sync/atomic"
	"time"
)

// LatencyBucketsMS are the upper bounds (milliseconds) of every latency
// histogram the serving tier exposes — request, pipeline stage, and
// per-shard leg — so all of them land on one axis. The implicit last
// bucket is +Inf. A value exactly equal to an upper bound lands in that
// bound's bucket (Prometheus `le` semantics).
var LatencyBucketsMS = [...]float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

// Histogram is a fixed-bucket latency histogram over LatencyBucketsMS
// with lock-free observation. The zero value is ready to use.
type Histogram struct {
	counts [len(LatencyBucketsMS) + 1]atomic.Int64
	sumNS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(LatencyBucketsMS) && ms > LatencyBucketsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}

// HistogramSnapshot is a Histogram read at one scrape.
type HistogramSnapshot struct {
	// Buckets are per-bucket (non-cumulative) observation counts
	// aligned with LatencyBucketsMS; the last entry is +Inf.
	Buckets [len(LatencyBucketsMS) + 1]int64
	Count   int64
	SumNS   int64
}

// Load reads the per-bucket (non-cumulative) counts and derives the
// total from their sum, so Count always equals the buckets even while
// other goroutines observe concurrently (the count is simply the state
// of the buckets at their individual load instants).
func (h *Histogram) Load() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumNS = h.sumNS.Load()
	return s
}
