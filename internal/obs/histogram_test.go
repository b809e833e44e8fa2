package obs

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketEdges pins the observe semantics: a value exactly
// equal to a bucket's upper bound lands in that bucket (Prometheus le
// semantics), and values beyond the last bound land in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	for i, ub := range LatencyBucketsMS {
		var h Histogram
		h.Observe(time.Duration(ub * float64(time.Millisecond)))
		buckets, count, _ := h.Load()
		if count != 1 {
			t.Fatalf("bound %v: count = %d", ub, count)
		}
		if buckets[i] != 1 {
			t.Errorf("value == bound %vms landed in bucket %v, want bucket %d (le=%v)", ub, buckets, i, ub)
		}
	}

	var h Histogram
	h.Observe(time.Duration(LatencyBucketsMS[len(LatencyBucketsMS)-1]*float64(time.Millisecond)) * 2)
	buckets, _, _ := h.Load()
	if buckets[len(LatencyBucketsMS)] != 1 {
		t.Errorf("overflow value landed in %v, want +Inf bucket", buckets)
	}

	var h2 Histogram
	h2.Observe(time.Duration(LatencyBucketsMS[0] * float64(time.Millisecond) / 2))
	buckets, _, _ = h2.Load()
	if buckets[0] != 1 {
		t.Errorf("small value landed in %v, want bucket 0", buckets)
	}
}

// TestHistogramConcurrentConsistency hammers one histogram from
// concurrent observers while a reader loads it; run under -race in CI.
// The count must always equal the bucket sum.
func TestHistogramConcurrentConsistency(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 500
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			buckets, count, _ := h.Load()
			var sum int64
			for _, b := range buckets {
				sum += b
			}
			if count != sum {
				t.Errorf("count %d != bucket sum %d", count, sum)
				return
			}
		}
	}()

	var writersWG sync.WaitGroup
	var wantSum int64
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(i%7) * time.Millisecond)
			}
		}()
		for i := 0; i < perWriter; i++ {
			wantSum += int64(time.Duration(i%7) * time.Millisecond)
		}
	}
	writersWG.Wait()
	close(stop)
	reader.Wait()

	_, count, sumNS := h.Load()
	if want := int64(writers * perWriter); count != want {
		t.Fatalf("final count %d, want %d", count, want)
	}
	if sumNS != wantSum {
		t.Fatalf("final sum %d, want %d", sumNS, wantSum)
	}
}
