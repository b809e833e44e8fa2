package server

import (
	"math"
	"reflect"
	"testing"

	"ndss/internal/search"
)

// notServed lists the search.Options fields no request can set (as in
// package wire's notOnWire), so the cache key need not carry them.
var notServed = map[string]string{
	"KeepRects": "rectangles are never served",
}

// TestCacheKeySensitivity checks that the key is exact: every served
// option field, every token position and the query length change it. A
// field added to search.Options fails here until cacheKey carries it or
// notServed lists it.
func TestCacheKeySensitivity(t *testing.T) {
	query := []uint32{1, 2, 3}
	base := search.Options{Theta: 0.5}
	ref := cacheKey(query, base)
	if cacheKey(query, base) != ref {
		t.Fatal("cacheKey is not deterministic")
	}

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		o := base
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(0.75)
		default:
			t.Fatalf("Options.%s has kind %s; teach this test to vary it", name, f.Kind())
		}
		_, skip := notServed[name]
		if changed := cacheKey(query, o) != ref; !changed && !skip {
			t.Errorf("changing Options.%s does not change the cache key (key it in cacheKey or list it in notServed)", name)
		}
	}
	for name := range notServed {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("notServed lists %s, which search.Options no longer has", name)
		}
	}

	for pos := range query {
		q := append([]uint32(nil), query...)
		q[pos]++
		if cacheKey(q, base) == ref {
			t.Errorf("changing token %d does not change the cache key", pos)
		}
	}
	if cacheKey([]uint32{1, 2}, base) == cacheKey([]uint32{1, 2, 0}, base) {
		t.Error("[1 2] and [1 2 0] share a cache key")
	}
}

// TestCacheKeySketchAliasing is the regression test for the cross-length
// aliasing bug of the sketch-keyed layout, where a variable-length field
// sat ahead of the option words and two requests of different lengths
// could serialize to the same bytes. The key now puts the fixed-width
// option words first and the tokens last, so a key's first 32 bytes fix
// the options and its length fixes the query's length. The pair below is
// shaped like the old collision: B carries A's Theta bits as two extra
// leading tokens and takes A's next words as its options.
func TestCacheKeySketchAliasing(t *testing.T) {
	const header = 4 * 8
	tokens := []uint32{1, 2, 3}
	optsA := search.Options{Theta: 0.75, MinLength: 7, Verify: true}
	keyA := cacheKey(tokens, optsA)

	bits := math.Float64bits(optsA.Theta)
	tokensB := append([]uint32{uint32(bits), uint32(bits >> 32)}, tokens...)
	optsB := search.Options{
		Theta:     math.Float64frombits(uint64(optsA.MinLength)),
		MinLength: 2, // A's flags word: the Verify bit
	}
	keyB := cacheKey(tokensB, optsB)
	if keyA == keyB {
		t.Fatal("distinct (query, options) pairs alias to one cache key")
	}

	for _, q := range [][]uint32{nil, {0}, tokens, tokensB} {
		key := cacheKey(q, optsA)
		if len(key) != header+4*len(q) {
			t.Errorf("len(cacheKey(%v)) = %d, want %d: the option words must be fixed-width", q, len(key), header+4*len(q))
		}
		if key[:header] != keyA[:header] {
			t.Errorf("the first %d bytes of cacheKey(%v) depend on the query; the option words must come first", header, q)
		}
	}
}
