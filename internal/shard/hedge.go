package shard

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// quantileWindowSize is how many recent latency samples back the
// streaming quantile estimate. Small enough that the on-demand copy +
// sort is microseconds, large enough that P95 is meaningful.
const quantileWindowSize = 128

// quantileWindow is a sliding window of recent request latencies with
// an on-demand quantile. Only successful attempts are observed — a
// failing replica's error latency must not drag the hedge trigger
// around — so the P95 tracks the replica's answering behaviour.
type quantileWindow struct {
	mu   sync.Mutex
	buf  [quantileWindowSize]int64 // guarded by mu; ns
	n    int                       // guarded by mu; filled entries
	next int                       // guarded by mu; ring cursor
}

func (q *quantileWindow) observe(d time.Duration) {
	q.mu.Lock()
	q.buf[q.next] = int64(d)
	q.next = (q.next + 1) % quantileWindowSize
	if q.n < quantileWindowSize {
		q.n++
	}
	q.mu.Unlock()
}

// quantile returns the p-quantile (0 < p <= 1) of the window, or 0
// when no samples have been observed yet.
func (q *quantileWindow) quantile(p float64) time.Duration {
	q.mu.Lock()
	n := q.n
	var scratch [quantileWindowSize]int64
	copy(scratch[:n], q.buf[:n])
	q.mu.Unlock()
	if n == 0 {
		return 0
	}
	s := scratch[:n]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(n))
	if i >= n {
		i = n - 1
	}
	return time.Duration(s[i])
}

// lockedRand is a mutex-guarded rand.Rand: routing draws from one
// deterministic stream (seeded per ReplicaSet) so chaos tests replay
// exactly.
type lockedRand struct {
	mu  sync.Mutex
	rnd *rand.Rand // guarded by mu
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rnd: rand.New(rand.NewSource(seed))}
}

func (r *lockedRand) intn(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rnd.Intn(n)
}
