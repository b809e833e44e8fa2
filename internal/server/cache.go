package server

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"ndss/internal/search"
	"ndss/internal/wire"
)

// resultCache is a mutex-guarded LRU of fully computed query results,
// keyed by the request: its options and raw tokens (cacheKey).
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List               // guarded by mu; front = most recent
	m   map[string]*list.Element // guarded by mu
}

// cacheEntry is one cached result: the response as first served. Its
// slices are shared between the cache and every response served
// from it and must be treated as immutable.
type cacheEntry struct {
	key  string
	resp wire.Response
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

func (c *resultCache) put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.m[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// flush empties the cache. Called on backend reload: cached results
// belong to the previous index and must not survive the swap.
func (c *resultCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.m = make(map[string]*list.Element)
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheKey builds the request key: θ, MinLength, the flags and Limit
// as fixed-width words, then the raw tokens. Only the tokens vary in
// length and they come last, so the key is exact: two requests share an
// entry only when their options and token sequences are equal. A top-k
// query is a search with a Limit, so /search and /search/topk share one
// key space: the same options are the same result.
func cacheKey(query []uint32, o search.Options) string {
	var flags uint64
	if o.PrefixFilter {
		flags |= 1
	}
	if o.Verify {
		flags |= 2
	}
	b := make([]byte, 0, 4*8+4*len(query))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Theta))
	b = binary.LittleEndian.AppendUint64(b, uint64(o.MinLength))
	b = binary.LittleEndian.AppendUint64(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(o.Limit))
	for _, tok := range query {
		b = binary.LittleEndian.AppendUint32(b, tok)
	}
	return string(b)
}
