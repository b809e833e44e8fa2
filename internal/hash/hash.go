// Package hash provides seeded universal hash families and min-hash
// sketching for token sequences.
//
// The near-duplicate search algorithm estimates the Jaccard similarity of
// two sequences by the fraction of k independent min-hash functions on
// which they collide. Each function in a Family maps a 32-bit token id to
// a 64-bit hash value; the min-hash of a sequence under a function is the
// minimum hash over its (distinct) tokens.
//
// The family uses degree-1 polynomial hashing over the Mersenne prime
// 2^61-1, which is 2-universal: for a != b, Pr[h(a)=h(b)] <= 1/p. All
// randomness is derived from a caller-provided seed so indexes and
// queries are reproducible.
package hash

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// MersennePrime61 is the modulus of the hash family, 2^61 - 1.
const MersennePrime61 = (1 << 61) - 1

// Func is a single universal hash function h(x) = (a*x + b) mod p with
// 0 < a < p and 0 <= b < p. The zero value is not a valid hash function;
// obtain instances from NewFamily.
type Func struct {
	a uint64
	b uint64
}

// Hash maps a token id to a value in [0, 2^61-1).
func (f Func) Hash(token uint32) uint64 {
	return mulAddMod61(f.a, uint64(token), f.b)
}

// mulAddMod61 computes (a*x + b) mod (2^61-1) without overflow using
// 128-bit intermediate arithmetic.
func mulAddMod61(a, x, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	// Reduce the 128-bit product modulo 2^61-1. With p = 2^61-1,
	// 2^61 ≡ 1 (mod p), so n = hi*2^64 + lo ≡ hi*8 + lo (mod p) after
	// splitting lo into its low 61 bits and high 3 bits.
	r := (lo & MersennePrime61) + (lo >> 61) + (hi << 3 & MersennePrime61) + (hi >> 58)
	r = (r & MersennePrime61) + (r >> 61)
	r += b
	r = (r & MersennePrime61) + (r >> 61)
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	return r
}

// Family is a set of k independent universal hash functions.
type Family struct {
	funcs []Func
	seed  int64
}

// NewFamily creates k independent hash functions derived
// deterministically from seed.
func NewFamily(k int, seed int64) (*Family, error) {
	if k <= 0 {
		return nil, fmt.Errorf("hash: family size must be positive, got %d", k)
	}
	rng := rand.New(rand.NewSource(seed))
	funcs := make([]Func, k)
	for i := range funcs {
		// a must be non-zero for universality.
		a := uint64(rng.Int63n(MersennePrime61-1)) + 1
		b := uint64(rng.Int63n(MersennePrime61))
		funcs[i] = Func{a: a, b: b}
	}
	return &Family{funcs: funcs, seed: seed}, nil
}

// MustNewFamily is NewFamily but panics on error. Intended for
// package-level variables and tests with constant arguments.
func MustNewFamily(k int, seed int64) *Family {
	f, err := NewFamily(k, seed)
	if err != nil {
		panic(err)
	}
	return f
}

// K returns the number of hash functions in the family.
func (fam *Family) K() int { return len(fam.funcs) }

// Seed returns the seed the family was derived from.
func (fam *Family) Seed() int64 { return fam.seed }

// Func returns the i-th hash function, 0 <= i < K().
func (fam *Family) Func(i int) Func { return fam.funcs[i] }

// ErrEmptySequence is returned when a min-hash of an empty sequence is
// requested.
var ErrEmptySequence = errors.New("hash: empty sequence has no min-hash")

// MinHash returns the minimum hash value over the tokens of seq under the
// i-th function. Duplicate tokens do not affect the result, so this is
// the min-hash of the distinct token set.
func (fam *Family) MinHash(i int, seq []uint32) (uint64, error) {
	if len(seq) == 0 {
		return 0, ErrEmptySequence
	}
	f := fam.funcs[i]
	min := f.Hash(seq[0])
	for _, tok := range seq[1:] {
		if h := f.Hash(tok); h < min {
			min = h
		}
	}
	return min, nil
}

// Sketch returns the k-mins sketch of seq: the min-hash under every
// function of the family, in function order.
func (fam *Family) Sketch(seq []uint32) ([]uint64, error) {
	return fam.SketchAppend(seq, nil)
}

// SketchAppend appends the k-mins sketch of seq to dst and returns the
// extended slice, letting callers reuse one scratch buffer across many
// sketches. dst may be nil.
func (fam *Family) SketchAppend(seq []uint32, dst []uint64) ([]uint64, error) {
	if len(seq) == 0 {
		return dst, ErrEmptySequence
	}
	for i := range fam.funcs {
		h, err := fam.MinHash(i, seq)
		if err != nil {
			return dst, err
		}
		dst = append(dst, h)
	}
	return dst, nil
}

// Collisions counts positions where the two sketches agree. Sketches must
// come from the same family; mismatched lengths are a programming error.
func Collisions(a, b []uint64) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hash: sketch length mismatch %d vs %d", len(a), len(b)))
	}
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return n
}
