package shard

import "sync"

// BreakerState enumerates the circuit-breaker states. The zero value is
// Closed: a fresh replica is assumed healthy until it proves otherwise.
// The numeric values are the ndss_shard_breaker_state gauge encoding.
type BreakerState int32

const (
	// BreakerClosed: requests flow normally; consecutive failures are
	// counted and trip the breaker at the configured threshold.
	BreakerClosed BreakerState = 0
	// BreakerOpen: the replica exceeded the failure threshold and is
	// skipped by routing until a successful attempt or health probe
	// closes the breaker.
	BreakerOpen BreakerState = 2
)

// breaker is a consecutive-failure circuit breaker guarding one
// replica:
//
//	Closed --(threshold consecutive failures)--> Open
//	any --(successful attempt or health probe)--> Closed
//
// Routing skips an open replica while any closed one is left, so the
// background prober (CheckHealth) is the path back into rotation; an
// open replica only sees a fail-open primary when nothing else can
// serve, and never a retry or hedge.
type breaker struct {
	mu        sync.Mutex
	state     BreakerState // guarded by mu
	fails     int          // guarded by mu; consecutive failures
	threshold int          // set before the replica set is shared; read-only after
}

// onSuccess records a request that completed successfully, or a health
// probe that proved the replica serving.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.state = BreakerClosed
}

// onFailure records a request that failed for a reason attributable to
// the replica (not a caller-side cancellation), or one a winning hedge
// beat.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails >= b.threshold {
		b.state = BreakerOpen
	}
}

// current returns the state for routing and metrics.
func (b *breaker) current() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
