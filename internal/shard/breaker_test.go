package shard

import (
	"testing"
	"time"
)

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b := &breaker{threshold: 3}
	for i := 0; i < 2; i++ {
		b.onFailure()
		if b.current() != BreakerClosed {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.onFailure()
	if b.current() != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", b.current())
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := &breaker{threshold: 3}
	b.onFailure()
	b.onFailure()
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if b.current() != BreakerClosed {
		t.Fatal("non-consecutive failures must not trip the breaker")
	}
}

func TestBreakerResetClosesFromAnyState(t *testing.T) {
	b := &breaker{threshold: 1}
	b.onFailure()
	if b.current() != BreakerOpen {
		t.Fatal("setup: breaker should be open")
	}
	b.onSuccess() // a successful attempt or health probe
	if b.current() != BreakerClosed {
		t.Fatal("a success must close an open breaker outright")
	}
}

func TestQuantileWindow(t *testing.T) {
	var q quantileWindow
	if q.quantile(0.95) != 0 {
		t.Fatal("empty window reports 0 (hedge floor applies instead)")
	}
	for i := 1; i <= 100; i++ {
		q.observe(time.Duration(i) * time.Millisecond)
	}
	p95 := q.quantile(0.95)
	if p95 < 90*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("P95 of 1..100ms = %v, want ~95ms", p95)
	}
	// The window slides: flooding with fast samples forgets the slow ones.
	for i := 0; i < quantileWindowSize; i++ {
		q.observe(time.Millisecond)
	}
	if got := q.quantile(0.95); got != time.Millisecond {
		t.Fatalf("P95 after window turnover = %v, want 1ms", got)
	}
}
