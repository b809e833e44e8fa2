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
// Scratch.Generate is the generator every builder runs, O(n) with no
// recursion, in ascending C. It finds the centres first — exactly the
// leftmost minima of the length-t windows, by a blocked sliding minimum
// — and then runs a monotonic stack over those alone, about 2n/(t+1) of
// them, for each centre's previous-smaller-or-equal / next-smaller
// bounds. GenerateSegmentTree is the paper's divide-and-conquer
// Algorithm 2 over ALIGN's segment tree, O(n log n); it is the ablation
// baseline and the reference the tests hold Generate to.
//
// Positions are 0-based; L, C, R are all inclusive.
package window

import (
	"fmt"
	"slices"

	"ndss/internal/hash"
)

// Window is a compact window (L, C, R), 0-based inclusive positions into
// a text. Every sequence starting in [L, C] and ending in [C, R] has
// min-hash equal to the hash of the token at C.
type Window struct {
	L, C, R int32
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
	suffix []argmin // a t-block's suffix minima
	cands  []int32  // the centres, ascending
	stack  []int32  // indexes into cands of the centres on the stack
}

// argmin is a position and its value: the leftmost minimum of a range.
type argmin struct {
	val uint64
	pos int32
}

// Generate appends to dst every valid compact window of the token hash
// array vals under length threshold t, in O(len(vals)) time and in
// ascending C, and returns the extended slice. Ties between equal hash
// values are broken toward the leftmost position, matching
// GenerateSegmentTree.
//
// Position c's maximal window is [L, R], where L-1 is the closest
// previous position with value <= vals[c] and R+1 the closest next one
// with value < vals[c]; c is the leftmost minimum of [L, R], and the
// window is valid iff R-L+1 >= t. That holds exactly when c is the
// leftmost minimum of some length-t window, so the centres are found
// first (candidates) and a monotonic stack then runs over them alone,
// about 2n/(t+1) values instead of n: a centre learns L when it is
// pushed and R from the centre that pops it. It finds the same bounds: a
// centre's previous-<= and next-< neighbours are centres too, since
// every value between the two is larger and the neighbour's own maximal
// window covers the centre's. Equal values at C1 < C2 have L2 > C1 >=
// L1, so within one hash value the output also ascends strictly in L —
// the order inverted lists keep.
func (s *Scratch) Generate(vals []uint64, t int, dst []Window) []Window {
	n := len(vals)
	if t < 1 {
		t = 1
	}
	if n < t {
		return dst
	}
	cands := s.candidates(vals, t)
	at := len(dst)
	dst = slices.Grow(dst, len(cands))[:at+len(cands)]
	ws := dst[at:] // ws[i] is centre cands[i]'s window
	stack := s.stack[:0]
	for i, c := range cands {
		l := int32(0)
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if vals[cands[top]] <= vals[c] {
				l = cands[top] + 1
				break
			}
			ws[top].R = c - 1
			stack = stack[:len(stack)-1]
		}
		ws[i] = Window{L: l, C: c}
		stack = append(stack, int32(i))
	}
	for _, top := range stack {
		ws[top].R = int32(n - 1)
	}
	s.stack = stack
	return dst
}

// candidates returns each distinct leftmost minimum of a length-t
// window of vals, ascending; len(vals) >= t >= 1. It is the blocked
// sliding minimum: vals is cut into t-blocks, and the window starting
// at s in block [b, b+t) is the block's suffix [s, b+t) joined with the
// next block's prefix [b+t, s+t), so the suffix minima of the block and
// a running prefix minimum of the next answer every window in O(1),
// without a branch on the values. Ties go left throughout. Consecutive
// windows' minima never descend, so a repeat of the last centre is the
// only duplicate.
func (s *Scratch) candidates(vals []uint64, t int) []int32 {
	n := len(vals)
	if cap(s.suffix) < t {
		s.suffix = make([]argmin, t)
	}
	if cap(s.cands) < n-t+1 {
		s.cands = make([]int32, n-t+1)
	}
	suffix, cands := s.suffix[:t], s.cands[:n-t+1]
	k, last := 0, int32(-1)
	for b := 0; b+t <= n; b += t {
		suffixMinima(vals[b:b+t], int32(b), suffix)
		k, last = windowMinima(vals[b+t:min(b+2*t-1, n)], int32(b+t), suffix, cands, k, last)
	}
	return cands[:k]
}

// windowMinima appends to cands[:k] the leftmost minimum of each window
// starting in a block, skipping a repeat of last, and returns the new
// length and last centre. suffix holds the block's suffix minima and
// next the positions, from base on, of the block after it that the
// windows reach into: the window starting at the block's i-th position
// is suffix[i] joined with next[:i]. It and suffixMinima are kept out
// of line: inlined into candidates' loop, their running minimum is
// spilled to the stack on every step.
//
//go:noinline
func windowMinima(next []uint64, base int32, suffix []argmin, cands []int32, k int, last int32) (int, int32) {
	suffix = suffix[:len(next)+1]
	// The first window is the block itself.
	c := suffix[0].pos
	cands[k] = c
	if c != last {
		k++
	}
	last = c
	p := argmin{val: ^uint64(0)}
	for i, v := range next {
		if v < p.val {
			p = argmin{val: v, pos: base + int32(i)}
		}
		c := suffix[i+1].pos
		if p.val < suffix[i+1].val {
			c = p.pos
		}
		cands[k] = c
		if c != last {
			k++
		}
		last = c
	}
	return k, last
}

// suffixMinima sets suffix[i] to the leftmost minimum of block[i:], its
// position offset by base.
//
//go:noinline
func suffixMinima(block []uint64, base int32, suffix []argmin) {
	suffix = suffix[:len(block)]
	m := argmin{val: ^uint64(0)}
	for i := len(block) - 1; i >= 0; i-- {
		if v := block[i]; v <= m.val {
			m = argmin{val: v, pos: base + int32(i)}
		}
		suffix[i] = m
	}
}

// GenerateSegmentTree appends to dst every valid compact window of vals
// under length threshold t and returns the extended slice. It is the
// paper's divide-and-conquer Algorithm 2 with ALIGN's range-minimum
// structure, a segment tree: O(n) build, O(log n) per split, so
// O(n log n) in all. The recursion runs on an explicit stack so
// arbitrarily long texts cannot overflow the goroutine stack. Windows
// come out in split order, not ascending C.
func GenerateSegmentTree(vals []uint64, t int, dst []Window) []Window {
	n := len(vals)
	if t < 1 {
		t = 1
	}
	if n < t {
		return dst
	}
	st := newSegmentTree(vals)
	type span struct{ l, r int32 }
	work := make([]span, 1, 64)
	work[0] = span{0, int32(n - 1)}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if int(s.r)-int(s.l)+1 < t {
			continue
		}
		c := st.query(1, 0, int32(n-1), s.l, s.r)
		dst = append(dst, Window{L: s.l, C: c, R: s.r})
		work = append(work, span{s.l, c - 1}, span{c + 1, s.r})
	}
	return dst
}

// segmentTree answers leftmost-minimum queries over vals, which it
// retains: tree[v] is the position of the leftmost minimum in node v's
// range, the root being node 1 over [0, len(vals)-1].
type segmentTree struct {
	vals []uint64
	tree []int32
}

// newSegmentTree builds the tree over vals, which must be non-empty.
func newSegmentTree(vals []uint64) *segmentTree {
	st := &segmentTree{vals: vals, tree: make([]int32, 4*len(vals))}
	st.build(1, 0, int32(len(vals)-1))
	return st
}

func (st *segmentTree) build(v int, l, r int32) {
	if l == r {
		st.tree[v] = l
		return
	}
	mid := (l + r) / 2
	st.build(2*v, l, mid)
	st.build(2*v+1, mid+1, r)
	st.tree[v] = st.merge(st.tree[2*v], st.tree[2*v+1])
}

// merge picks the leftmost minimum of two positions, a < b.
func (st *segmentTree) merge(a, b int32) int32 {
	if st.vals[b] < st.vals[a] {
		return b
	}
	return a
}

// query returns the leftmost minimum of [l, r], which must lie within
// node v's range [nl, nr].
func (st *segmentTree) query(v int, nl, nr, l, r int32) int32 {
	if l <= nl && nr <= r {
		return st.tree[v]
	}
	mid := (nl + nr) / 2
	if r <= mid {
		return st.query(2*v, nl, mid, l, r)
	}
	if l > mid {
		return st.query(2*v+1, mid+1, nr, l, r)
	}
	return st.merge(st.query(2*v, nl, mid, l, r), st.query(2*v+1, mid+1, nr, l, r))
}

// GenerateTokens hashes tokens with f and runs Scratch.Generate on fresh
// scratch, for call sites that do not manage reuse buffers themselves.
func GenerateTokens(tokens []uint32, f hash.Func, t int) []Window {
	var s Scratch
	return s.Generate(Hashes(tokens, f, nil), t, nil)
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
