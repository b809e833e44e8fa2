// Fixture: fields annotated `// guarded by <mu>` accessed without the
// named mutex held.
package shard

import (
	"sync"
	"sync/atomic"
)

type box struct {
	mu sync.Mutex
	n  int   // guarded by mu
	s  []int // guarded by mu
}

type rwbox struct {
	mu  sync.RWMutex
	val int // guarded by mu
}

type badbox struct {
	mu sync.Mutex
	x  int // guarded by lock // want `names no sibling sync\.Mutex`
}

func (b *box) badRead() int {
	return b.n // want `field n is read without b\.mu held`
}

func (b *box) badWrite() {
	b.n = 0 // want `field n is written without b\.mu held`
}

func (b *box) badAfterUnlock() int {
	b.mu.Lock()
	n := b.n
	b.mu.Unlock()
	return n + b.n // want `field n is read without b\.mu held`
}

func (r *rwbox) badWriteUnderRLock() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.val = 1 // want `RLock is not enough to write`
}

func (b *box) badAfterConditionalUnlock(flush bool) {
	b.mu.Lock()
	if flush {
		b.s = nil
		b.mu.Unlock()
	}
	b.n++ // want `field n is written without b\.mu held`
}

// A closure may run on another goroutine or after the deferred unlock;
// the lock held at creation proves nothing at call time.
func (b *box) badClosure() func() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return func() int { return b.n } // want `field n is read without b\.mu held`
}

func (b *badbox) useX() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.x
}

// A guarded field reached through sync/atomic is still an unguarded
// access: mutex writers do not exclude atomic readers, so the mutex
// discipline must hold for every access.
type mixer struct {
	mu    sync.Mutex
	mixed atomic.Bool // guarded by mu
	raw   int64       // guarded by mu
}

func (m *mixer) bumpUnderLock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.raw++
	m.mixed.Store(true)
}

func (m *mixer) sample() int64 {
	return atomic.LoadInt64(&m.raw) // want `field raw is written without m\.mu held`
}

func (m *mixer) peek() bool {
	return m.mixed.Load() // want `field mixed is read without m\.mu held`
}
