package server

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"ndss/internal/search"
	"ndss/internal/wire"
)

// resultCache is a mutex-guarded LRU of fully computed query results,
// keyed by (endpoint, sketch, options). Keying on the min-hash sketch
// rather than the raw tokens means distinct queries that sketch
// identically — and therefore produce identical collision sets — share
// an entry. When Verify is on the exact Jaccard values do depend on the
// raw tokens, so a token digest is folded into the key.
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List               // guarded by mu; front = most recent
	m   map[string]*list.Element // guarded by mu
}

// cacheEntry is one cached result: the response as first served, minus
// the span list (a hit never ships one, so the cache must not pin it).
// Its slices are shared between the cache and every response served
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

// cacheKey builds the (sketch, options) key. A top-k query is a search
// with a Limit, so /search and /search/topk share one key space: the
// same options are the same result.
func cacheKey(sketch []uint64, query []uint32, o search.Options) string {
	b := make([]byte, 0, 8*(len(sketch)+6))
	var tmp [8]byte
	app64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		b = append(b, tmp[:]...)
	}
	// Length-prefix the variable-length sketch so its values can never
	// alias the fixed option fields that follow: without the prefix, a
	// (K)-sketch key and a (K+1)-sketch key whose extra word equals the
	// Theta bits (and whose remaining fields shift accordingly) would
	// serialize identically. Latent while one backend pins one K, but a
	// shard coordinator and reloads make K a runtime property.
	app64(uint64(len(sketch)))
	for _, h := range sketch {
		app64(h)
	}
	app64(math.Float64bits(o.Theta))
	app64(uint64(o.MinLength))
	var flags uint64
	if o.PrefixFilter {
		flags |= 1
	}
	if o.Verify {
		flags |= 2
	}
	app64(flags)
	app64(uint64(o.Limit))
	if o.Verify {
		// Exact Jaccard depends on the query's distinct token set, not
		// just its sketch.
		d := fnv.New64a()
		for _, tok := range query {
			binary.LittleEndian.PutUint32(tmp[:4], tok)
			d.Write(tmp[:4])
		}
		app64(d.Sum64())
	}
	return string(b)
}
