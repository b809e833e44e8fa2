// Package window implements compact-window generation, the core of the
// paper's indexing contribution (§3.3, Algorithm 2).
//
// A compact window (L, C, R) over a text T and hash function f
// represents every sequence T[i..j] with L <= i <= C <= j <= R; all of
// them share the same min-hash value f(T[C]), because T[C] holds the
// smallest token hash in T[L..R]. Only "valid" windows — those whose
// width R-L+1 is at least the length threshold t — are generated, and
// every sequence of length >= t lies in exactly one generated window
// (Theorem 1). In expectation a text with n distinct tokens yields
// 2(n+1)/(t+1) - 1 valid windows.
//
// Two equivalent generators are provided:
//
//   - Generate: the paper's divide-and-conquer Algorithm 2 on top of a
//     pluggable RMQ structure (O(n) total with the linear RMQ, O(n log n)
//     with a segment tree as in ALIGN).
//   - GenerateLinear (Scratch.Generate on reused memory): a
//     monotonic-stack formulation that computes each position's maximal
//     window directly via previous-smaller-or-equal / next-smaller bounds
//     in one O(n) pass with no recursion, in ascending C.
//
// Positions are 0-based; L, C, R are all inclusive.
package window

import (
	"fmt"

	"ndss/internal/hash"
	"ndss/internal/rmq"
)

// Window is a compact window (L, C, R), 0-based inclusive positions into
// a text. Every sequence starting in [L, C] and ending in [C, R] has
// min-hash equal to the hash of the token at C.
type Window struct {
	L, C, R int32
}

// Width returns the number of tokens the window spans.
func (w Window) Width() int { return int(w.R - w.L + 1) }

// Contains reports whether the sequence [i, j] is represented by w.
func (w Window) Contains(i, j int32) bool {
	return w.L <= i && i <= w.C && w.C <= j && j <= w.R
}

// Count returns the number of sequences represented by w: sequences may
// start anywhere in [L, C] and end anywhere in [C, R].
func (w Window) Count() int64 {
	return int64(w.C-w.L+1) * int64(w.R-w.C+1)
}

// CountAtLeast returns the number of sequences of length >= t that w
// represents.
func (w Window) CountAtLeast(t int) int64 {
	n := int64(0)
	for i := w.L; i <= w.C; i++ {
		// j ranges over [max(C, i+t-1), R].
		lo := i + int32(t) - 1
		if lo < w.C {
			lo = w.C
		}
		if lo > w.R {
			continue
		}
		n += int64(w.R - lo + 1)
	}
	return n
}

func (w Window) String() string {
	return fmt.Sprintf("(%d,%d,%d)", w.L, w.C, w.R)
}

// Hashes fills dst with f applied to each token and returns it,
// allocating only when dst is too small. This is the per-function hash
// pass preceding window generation.
func Hashes(tokens []uint32, f hash.Func, dst []uint64) []uint64 {
	if cap(dst) < len(tokens) {
		dst = make([]uint64, len(tokens))
	}
	dst = dst[:len(tokens)]
	for i, tok := range tokens {
		dst[i] = f.Hash(tok)
	}
	return dst
}

// Scratch is the linear generator's working memory. A caller generating
// many texts keeps one and pays for the arrays once; the zero value is
// ready to use. Not safe for concurrent use.
type Scratch struct {
	bounds []struct{ l, r int32 } // each position's maximal window
	stack  []stackEntry
}

// stackEntry carries a stacked position's value, sparing the pop loop a
// trip to the hash array.
type stackEntry struct {
	val uint64
	pos int32
}

// Generate appends to dst every valid compact window of the token hash
// array vals under length threshold t, in O(len(vals)) time and in
// ascending C, and returns the extended slice. Ties between equal hash
// values are broken toward the leftmost position, matching the RMQ-based
// generator.
//
// For each position c the maximal window is [L, R] where L-1 is the
// closest previous position with value <= vals[c] and R+1 is the closest
// next position with value < vals[c]; c is then the leftmost minimum of
// [L, R]. One pass over a stack of positions with strictly increasing
// values finds both: L is known when c is pushed (one past the position
// then below it), and R when a strictly smaller value pops c (one before
// the popping position). The window is emitted iff R-L+1 >= t. Equal
// values at C1 < C2 have L2 > C1 >= L1, so within one hash value the
// output also ascends strictly in L — the order inverted lists keep.
func (s *Scratch) Generate(vals []uint64, t int, dst []Window) []Window {
	n := len(vals)
	if t < 1 {
		t = 1
	}
	if n < t {
		return dst
	}
	if cap(s.bounds) < n {
		s.bounds = make([]struct{ l, r int32 }, n)
		s.stack = make([]stackEntry, n+1)
	}
	// Every position is pushed once and popped once, here or in the
	// final drain, so bounds[:n] keeps nothing of an earlier input.
	bounds, stack := s.bounds[:n], s.stack[:n+1]
	// stack[0] is a sentinel "position -1" that no value pops: L = 0 when
	// nothing smaller-or-equal precedes c. e mirrors the top entry.
	e := stackEntry{val: 0, pos: -1}
	stack[0] = e
	top := 0
	for c, v := range vals {
		for e.val > v {
			bounds[e.pos].r = int32(c - 1)
			top--
			e = stack[top]
		}
		bounds[c].l = e.pos + 1
		top++
		e = stackEntry{val: v, pos: int32(c)}
		stack[top] = e
	}
	for ; top > 0; top-- {
		bounds[stack[top].pos].r = int32(n - 1)
	}
	for c, b := range bounds {
		if int(b.r)-int(b.l)+1 >= t {
			dst = append(dst, Window{L: b.l, C: int32(c), R: b.r})
		}
	}
	return dst
}

// GenerateLinear is Scratch.Generate on fresh scratch, for call sites
// that do not manage reuse.
func GenerateLinear(vals []uint64, t int, dst []Window) []Window {
	var s Scratch
	return s.Generate(vals, t, dst)
}

// Generate appends to dst every valid compact window of vals under
// length threshold t using the paper's divide-and-conquer Algorithm 2 on
// the RMQ structure produced by newRMQ, and returns the extended slice.
// The recursion is realized with an explicit stack so arbitrarily long
// texts cannot overflow the goroutine stack.
func Generate(vals []uint64, t int, newRMQ func([]uint64) rmq.RMQ, dst []Window) []Window {
	n := len(vals)
	if t < 1 {
		t = 1
	}
	if n < t {
		return dst
	}
	r := newRMQ(vals)
	type span struct{ l, r int32 }
	work := make([]span, 1, 64)
	work[0] = span{0, int32(n - 1)}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if int(s.r)-int(s.l)+1 < t {
			continue
		}
		c := int32(r.Query(int(s.l), int(s.r)))
		dst = append(dst, Window{L: s.l, C: c, R: s.r})
		work = append(work, span{s.l, c - 1}, span{c + 1, s.r})
	}
	return dst
}

// GenerateTokens is a convenience wrapper: it hashes tokens with f and
// runs GenerateLinear. Intended for call sites that do not manage reuse
// buffers themselves.
func GenerateTokens(tokens []uint32, f hash.Func, t int) []Window {
	vals := Hashes(tokens, f, nil)
	return GenerateLinear(vals, t, nil)
}

// ExpectedCount returns the expected number of valid compact windows for
// a text of n distinct random tokens and length threshold t, which
// Theorem 1 shows to be 2(n+1)/(t+1) - 1 for n >= t (and 0 otherwise).
func ExpectedCount(n, t int) float64 {
	if n < t || n <= 0 {
		return 0
	}
	return 2*float64(n+1)/float64(t+1) - 1
}
