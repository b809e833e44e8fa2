package server

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ndss/internal/search"
)

// tokenDigest mirrors cacheKey's Verify-mode token digest.
func tokenDigest(tokens []uint32) uint64 {
	d := fnv.New64a()
	var tmp [4]byte
	for _, tok := range tokens {
		binary.LittleEndian.PutUint32(tmp[:], tok)
		d.Write(tmp[:])
	}
	return d.Sum64()
}

// TestCacheKeySketchAliasing is the regression test for the
// variable-length-sketch aliasing bug: without the length prefix, a
// K-element sketch with Verify on and a (K+1)-element sketch without it
// serialized to the same bytes whenever the extra sketch word equaled
// the first key's Theta bits and the remaining option words shifted one
// slot left. The two requests would then share a cache entry across
// different sketch widths (different K after a reload or behind a shard
// coordinator) — a silent wrong-result bug.
func TestCacheKeySketchAliasing(t *testing.T) {
	tokens := []uint32{1, 2, 3}
	optsA := search.Options{Theta: 0.75, MinLength: 7, Verify: true}
	keyA := cacheKey([]uint64{42}, tokens, optsA)

	// B reproduces A's pre-fix serialization exactly: the extra sketch
	// word absorbs A's Theta bits and every following field takes the
	// value of A's next word (A's Verify flag bit lands in B's
	// MinLength, A's zero Limit in B's flags, A's token digest in B's
	// Limit).
	optsB := search.Options{
		Theta:     math.Float64frombits(uint64(optsA.MinLength)),
		MinLength: 2, // A's flags word: the Verify bit
		Limit:     int(tokenDigest(tokens)),
	}
	keyB := cacheKey([]uint64{42, math.Float64bits(optsA.Theta)}, nil, optsB)

	if keyA == keyB {
		t.Fatal("distinct (sketch, options) pairs alias to one cache key")
	}
	// Validity guard: the two keys must agree everywhere except the
	// length-prefix word, proving the prefix — not some accidental field
	// difference — is what separates them. Layout: the 8-byte sketch
	// length, then the payload.
	if len(keyA) != len(keyB) {
		t.Fatalf("construction drifted: len(keyA)=%d len(keyB)=%d; the aliasing pair must serialize to equal-length keys", len(keyA), len(keyB))
	}
	if keyA[8:] != keyB[8:] {
		t.Fatal("construction drifted: keys differ beyond the sketch-length word, so this no longer tests the aliasing")
	}
	if keyA[:8] == keyB[:8] {
		t.Fatal("sketch-length words are equal for different sketch lengths")
	}
}

// TestCacheKeySensitivity spot-checks that every keyed dimension changes
// the key.
func TestCacheKeySensitivity(t *testing.T) {
	base := func() string {
		return cacheKey([]uint64{1, 2}, nil, search.Options{Theta: 0.5})
	}
	ref := base()
	if base() != ref {
		t.Fatal("cacheKey is not deterministic")
	}
	variants := map[string]string{
		"sketch": cacheKey([]uint64{1, 3}, nil, search.Options{Theta: 0.5}),
		"theta":  cacheKey([]uint64{1, 2}, nil, search.Options{Theta: 0.6}),
		"minlen": cacheKey([]uint64{1, 2}, nil, search.Options{Theta: 0.5, MinLength: 8}),
		"flags":  cacheKey([]uint64{1, 2}, nil, search.Options{Theta: 0.5, PrefixFilter: true}),
		"limit":  cacheKey([]uint64{1, 2}, nil, search.Options{Theta: 0.5, Limit: 5}),
	}
	for dim, key := range variants {
		if key == ref {
			t.Errorf("changing %s does not change the cache key", dim)
		}
	}
	// Verify keys in the token digest: same options, different tokens.
	va := cacheKey([]uint64{1, 2}, []uint32{1}, search.Options{Theta: 0.5, Verify: true})
	vb := cacheKey([]uint64{1, 2}, []uint32{2}, search.Options{Theta: 0.5, Verify: true})
	if va == vb {
		t.Error("Verify keys ignore the token digest")
	}
}
