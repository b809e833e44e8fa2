package search

// The staged query pipeline. One search runs as
//
//	sketch → plan → gather → count → merge → verify
//
// over a per-query execution context (queryCtx) that owns every piece
// of mutable query state: the min-hash sketch, its resolved directory
// rows, the deferral plan, the posting arena with one cursor per short
// list, the count kernels' scratch, and a private I/O stats sink the
// index reads report into.
// Contexts come from one package-level pool shared by every Searcher,
// so steady-state queries allocate little beyond their results — also
// the first queries of a Searcher made for a freshly reloaded index —
// and because no state is shared between in-flight queries,
// Stats.IOBytes/IOTime are exact at any concurrency.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"ndss/internal/hash"
	"ndss/internal/index"
)

// Plan is one query's deferral plan, the output of the plan stage: for
// each of the k inverted lists, whether it is read fully up front
// (short) or deferred to per-candidate zone-map probes (long, §3.5).
// The JSON names are the body /explain serves.
type Plan struct {
	// Alpha is the short-list filter threshold Beta - NumLong (floored
	// at 1); Beta is the required collision count ceil(K*Theta).
	Alpha int `json:"alpha"`
	Beta  int `json:"beta"`
	// Cutoff is the list-length threshold applied: the index's
	// build-time Meta().LongListCutoff (4096 unless built otherwise), or
	// 0 when no filtering was asked.
	Cutoff int `json:"cutoff"`
	// Long[fn] reports whether function fn's list is deferred.
	Long []bool `json:"long"`
	// NumLong is the number of deferred lists (at most Beta-1, so the
	// short-list filter threshold stays positive).
	NumLong int `json:"num_long"`
}

// queryCtx is the per-query execution context: scratch buffers, the
// deferral plan, and the I/O stats sink. A context is owned by exactly
// one query from acquireCtx to releaseCtx.
type queryCtx struct {
	ctx    context.Context
	opts   Options
	minLen int

	sketch []uint64
	rows   index.Rows // the sketch's directory rows, less dropped segments
	plan   Plan

	lens  []int // scratch: per-function list lengths
	order []int // scratch: function ids, sorted by list length

	postings []index.Posting // arena: every short list, back to back
	lists    []listCursor    // one cursor per non-empty short list
	heap     []uint64        // driver merge heap, see mergeCandidates
	runs     []listCursor    // one candidate text's run in each list hit
	windows  []index.Posting // one surviving text's windows
	count    countScratch    // CollisionCount scratch
	qual     []spanRect      // scratch for span merging

	io index.IOStats // private per-query I/O sink
	st *Stats

	mark time.Time // the stage clock: when the running stage began
}

// listCursor is the unread part [pos, end) of one TextID-sorted short
// list within the posting arena.
type listCursor struct {
	pos, end int
}

// spanRect pairs a qualifying rectangle with its merged span.
type spanRect struct {
	span Interval
	rect Rect
}

// ctxPool holds the idle query contexts of every Searcher. Nothing in a
// context is tied to one index: each query resizes and refills every
// buffer it uses, so a context warmed on one index serves another.
var ctxPool sync.Pool // *queryCtx

// acquireCtx takes a context from the pool, or a new one, and readies it
// for one query.
func acquireCtx(ctx context.Context, opts Options, minLen, beta int, st *Stats) *queryCtx {
	qc, _ := ctxPool.Get().(*queryCtx)
	if qc == nil {
		qc = &queryCtx{}
	}
	qc.begin(ctx, opts, minLen, beta, st)
	return qc
}

// begin readies qc for one query reporting into st and starts its stage
// clock.
func (qc *queryCtx) begin(ctx context.Context, opts Options, minLen, beta int, st *Stats) {
	qc.ctx = ctx
	qc.opts = opts
	qc.minLen = minLen
	qc.plan.Beta = beta
	qc.st = st
	qc.io = index.IOStats{}
	qc.mark = time.Now()
}

// lap ends the running stage: it returns the time since the clock's
// last mark and moves the mark to now.
func (qc *queryCtx) lap() time.Duration {
	now := time.Now()
	d := now.Sub(qc.mark)
	qc.mark = now
	return d
}

// checkCancel is the pipeline's cancellation checkpoint: it reports the
// query context's error, if any. Stages call it between each other,
// before every list read or probe and every 1024 candidate texts of the
// merge, so no I/O starts after the deadline and no merge outlives it.
func (qc *queryCtx) checkCancel() error {
	return qc.ctx.Err()
}

func releaseCtx(qc *queryCtx) {
	qc.sketch = qc.sketch[:0]
	qc.postings = qc.postings[:0]
	qc.windows = qc.windows[:0]
	qc.qual = qc.qual[:0]
	qc.st = nil
	qc.ctx = nil
	ctxPool.Put(qc)
}

// stageSketch computes the query's k-mins sketch into the context.
func (s *Searcher) stageSketch(qc *queryCtx, query []uint32) error {
	sk, err := s.ix.Family().SketchAppend(query, qc.sketch[:0])
	if err != nil {
		return err
	}
	qc.sketch = sk
	return nil
}

// stagePlan resolves the sketch against every segment directory, drops
// the segments that cannot hold a match, and splits the k lists into
// short (read fully) and long (deferred to zone-map probes) over the
// segments left. A qualifying sequence collides on at least beta of the
// k hashes (Definition 2), and each collision is a posting in the
// segment owning the text, so a segment holding lists for fewer than
// beta of the hashes contributes nothing: none of its lists is read,
// probed or counted. With PrefixFilter, a list is long when it has more
// postings than the build-time Meta().LongListCutoff. At most beta-1
// lists go long so a candidate must still hit at least one short list.
func (s *Searcher) stagePlan(qc *queryCtx) {
	k := len(qc.sketch)
	if cap(qc.plan.Long) < k {
		qc.plan.Long = make([]bool, k)
	}
	qc.plan.Long = qc.plan.Long[:k]
	for i := range qc.plan.Long {
		qc.plan.Long[i] = false
	}
	qc.plan.NumLong, qc.plan.Cutoff = 0, 0
	beta := qc.plan.Beta

	s.ix.ResolveRows(&qc.rows, qc.sketch)
	for si := 0; si < qc.rows.Segments(); si++ {
		if qc.rows.Present(si) < beta {
			qc.rows.Drop(si)
		}
	}
	if qc.opts.PrefixFilter {
		cutoff := s.ix.Meta().LongListCutoff
		qc.plan.Cutoff = cutoff
		qc.lens, qc.order = qc.lens[:0], qc.order[:0]
		for fn := 0; fn < k; fn++ {
			n := qc.rows.Len(fn)
			qc.lens = append(qc.lens, n)
			qc.order = append(qc.order, fn)
			if n > cutoff {
				qc.plan.Long[fn] = true
				qc.plan.NumLong++
			}
		}
		// A candidate must appear in >= beta lists, so it must hit at
		// least one of the (k - beta + 1) shortest. Demote the shortest
		// deferred lists until at most beta-1 remain long.
		if qc.plan.NumLong > beta-1 {
			slices.SortFunc(qc.order, func(a, b int) int { return cmp.Compare(qc.lens[a], qc.lens[b]) })
			for _, fn := range qc.order {
				if qc.plan.NumLong <= beta-1 {
					break
				}
				if qc.plan.Long[fn] {
					qc.plan.Long[fn] = false
					qc.plan.NumLong--
				}
			}
		}
	}
	// Never defer a list the reader cannot probe cheaply: where the
	// owning segment's portion is long and has no zone map, a probe
	// degrades to a full read plus filter for every candidate text —
	// worse than the single up-front read a short list costs. Only a
	// segmented index has such lists above the cutoff.
	if qc.plan.NumLong > 0 {
		for fn := range qc.plan.Long {
			if qc.plan.Long[fn] && !qc.rows.Probeable(fn) {
				qc.plan.Long[fn] = false
				qc.plan.NumLong--
			}
		}
	}
	qc.plan.Alpha = beta - qc.plan.NumLong
	if qc.plan.Alpha < 1 {
		qc.plan.Alpha = 1
	}
}

// stageGather reads every short list into the posting arena, one cursor
// per non-empty list, charging the reads to the query's private I/O
// sink.
func (s *Searcher) stageGather(qc *queryCtx) error {
	qc.postings, qc.lists = qc.postings[:0], qc.lists[:0]
	for fn := range qc.plan.Long {
		if qc.plan.Long[fn] {
			continue
		}
		if err := qc.checkCancel(); err != nil {
			return err
		}
		qc.st.ShortLists++
		pos := len(qc.postings)
		ps, err := s.ix.ReadRowsInto(qc.postings, &qc.rows, fn, 0, math.MaxUint32, &qc.io)
		if err != nil {
			return err
		}
		qc.postings = ps
		if len(ps) > pos {
			qc.lists = append(qc.lists, listCursor{pos: pos, end: len(ps)})
		}
	}
	qc.st.LongLists = qc.plan.NumLong
	return nil
}

// stageCount runs the count and merge stages over every candidate text
// of the short-list merge and returns the final matches, which arrive in
// (TextID, Start) order.
func (s *Searcher) stageCount(qc *queryCtx) (matches []Match, err error) {
	err = qc.mergeCandidates(func(textID uint32) (cerr error) {
		matches, cerr = s.countText(qc, textID, matches) // nil on error
		return cerr
	})
	return matches, err
}

// mergeCandidates calls visit, in ascending TextID order, for every text
// hit by at least alpha of the S gathered short lists, with qc.runs
// holding the text's run of postings in each list that hit it.
//
// Windows of one list within one text are disjoint in (i, j) space, so
// alpha overlapping windows need alpha distinct lists, and such a text
// is in one of the S-alpha+1 shortest lists (DESIGN.md §5). Only those
// "drivers" are heap-merged to enumerate texts; the other cursors gallop
// forward to each, and a text is dropped, before any window is copied,
// once the lists that hit it plus the lists not yet asked cannot reach
// alpha.
func (qc *queryCtx) mergeCandidates(visit func(textID uint32) error) error {
	alpha, ps := qc.plan.Alpha, qc.postings
	if len(qc.lists) < alpha {
		return nil
	}
	slices.SortFunc(qc.lists, func(a, b listCursor) int { return cmp.Compare(a.end-a.pos, b.end-b.pos) })
	drivers, rest := qc.lists[:len(qc.lists)-alpha+1], qc.lists[len(qc.lists)-alpha+1:]
	// Heap keys are textID<<32 | driver, so the merge never touches the
	// arena to compare and equal texts pop in driver order.
	h := qc.heap[:0]
	for d, c := range drivers {
		h = append(h, uint64(ps[c.pos].TextID)<<32|uint64(d))
	}
	slices.Sort(h) // a sorted slice is a heap
	qc.heap = h
	for n := 1; len(h) > 0; n++ {
		if n%1024 == 0 {
			if err := qc.checkCancel(); err != nil {
				return err
			}
		}
		textID := uint32(h[0] >> 32)
		qc.runs = qc.runs[:0]
		for len(h) > 0 && uint32(h[0]>>32) == textID {
			c := &drivers[uint32(h[0])]
			if qc.takeRun(c, textID); c.pos < c.end {
				h[0] = uint64(ps[c.pos].TextID)<<32 | h[0]&math.MaxUint32
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h)
		}
		for i := 0; i < len(rest) && len(qc.runs)+len(rest)-i >= alpha; i++ {
			c := &rest[i]
			c.pos = seekText(ps, c.pos, c.end, textID)
			if c.pos < c.end && ps[c.pos].TextID == textID {
				qc.takeRun(c, textID)
			}
		}
		if len(qc.runs) >= alpha {
			if err := visit(textID); err != nil {
				return err
			}
		}
	}
	return nil
}

// siftDown restores the min-heap order after h[0] was replaced.
func siftDown(h []uint64) {
	for i, m := 0, 1; m < len(h); i, m = m, 2*m+1 {
		if m+1 < len(h) && h[m+1] < h[m] {
			m++
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
	}
}

// takeRun moves c past the run of textID's postings it stands on and
// records the run; runs are a handful of windows, so it walks.
func (qc *queryCtx) takeRun(c *listCursor, textID uint32) {
	end := c.pos + 1
	for end < c.end && qc.postings[end].TextID == textID {
		end++
	}
	qc.runs = append(qc.runs, listCursor{pos: c.pos, end: end})
	c.pos = end
}

// seekText returns the first position in ps[pos:end] (TextID-sorted)
// whose text is >= textID, galloping from pos: cursors only move
// forward and candidates are usually near.
func seekText(ps []index.Posting, pos, end int, textID uint32) int {
	lo, hi := pos-1, pos // everything up to lo is < textID
	for step := 1; hi < end && ps[hi].TextID < textID; step <<= 1 {
		lo, hi = hi, min(hi+step, end)
	}
	for lo+1 < hi { // ps[hi].TextID >= textID, or hi == end
		if mid := int(uint(lo+hi) >> 1); ps[mid].TextID < textID {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// countText counts collisions (Algorithm 4) among the windows of one
// text that passed the short-list filter (qc.runs), probes the deferred
// lists if a rectangle survives (zone maps keep each probe proportional
// to the text's postings), and appends the text's matches to matches.
func (s *Searcher) countText(qc *queryCtx, textID uint32, matches []Match) ([]Match, error) {
	qc.windows = qc.windows[:0]
	for _, r := range qc.runs {
		qc.windows = append(qc.windows, qc.postings[r.pos:r.end]...)
	}
	rects := qc.count.count(qc.windows, qc.plan.Alpha)
	if len(rects) == 0 {
		return matches, nil
	}
	qc.st.Candidates++
	if qc.plan.NumLong > 0 {
		qc.st.Probed++
		for fn := range qc.plan.Long {
			if !qc.plan.Long[fn] {
				continue
			}
			if err := qc.checkCancel(); err != nil {
				return nil, err
			}
			ws, err := s.ix.ReadRowsInto(qc.windows, &qc.rows, fn, textID, textID, &qc.io)
			if err != nil {
				return nil, err
			}
			qc.windows = ws
		}
		rects = qc.count.count(qc.windows, qc.plan.Beta)
	}
	qc.st.StageTimes.Count += qc.lap()
	matches = s.mergeText(qc, textID, rects, matches)
	qc.st.StageTimes.Merge += qc.lap()
	return matches, nil
}

// mergeText filters rectangles to those holding a qualifying sequence
// (count >= beta and a sequence of length >= minLen), merges their
// overlapping spans into disjoint matches (the paper's Remark) and
// appends those, in Start order, to out.
func (s *Searcher) mergeText(qc *queryCtx, textID uint32, rects []Rect, out []Match) []Match {
	qc.qual = qc.qual[:0]
	for _, r := range rects {
		if r.Count < qc.plan.Beta || !r.HasSequenceOfLength(qc.minLen) {
			continue
		}
		qc.qual = append(qc.qual, spanRect{span: r.Span(), rect: r})
	}
	if len(qc.qual) == 0 {
		return out
	}
	qc.st.Rects += len(qc.qual)
	slices.SortFunc(qc.qual, func(a, b spanRect) int { return cmp.Compare(a.span.Lo, b.span.Lo) })
	cur := Match{TextID: textID, Start: qc.qual[0].span.Lo, End: qc.qual[0].span.Hi, Collisions: qc.qual[0].rect.Count}
	if qc.opts.KeepRects {
		cur.Rects = []Rect{qc.qual[0].rect}
	}
	for _, q := range qc.qual[1:] {
		if q.span.Lo <= cur.End { // overlapping: merge
			if q.span.Hi > cur.End {
				cur.End = q.span.Hi
			}
			if q.rect.Count > cur.Collisions {
				cur.Collisions = q.rect.Count
			}
			if qc.opts.KeepRects {
				cur.Rects = append(cur.Rects, q.rect)
			}
		} else {
			cur.EstJaccard = float64(cur.Collisions) / float64(qc.st.K)
			out = append(out, cur)
			cur = Match{TextID: textID, Start: q.span.Lo, End: q.span.Hi, Collisions: q.rect.Count}
			if qc.opts.KeepRects {
				cur.Rects = []Rect{q.rect}
			}
		}
	}
	cur.EstJaccard = float64(cur.Collisions) / float64(qc.st.K)
	return append(out, cur)
}

// stageVerify fills Match.Jaccard with the exact distinct Jaccard
// similarity between the query and each merged span. validate has
// already guaranteed a TextSource is attached.
func (s *Searcher) stageVerify(qc *queryCtx, query []uint32, matches []Match) error {
	for i := range matches {
		if err := qc.checkCancel(); err != nil {
			return err
		}
		m := &matches[i]
		text, err := s.src.ReadText(m.TextID)
		if err != nil {
			return fmt.Errorf("search: verify text %d: %w", m.TextID, err)
		}
		if int(m.End) >= len(text) {
			return fmt.Errorf("search: match span [%d, %d] exceeds text %d length %d",
				m.Start, m.End, m.TextID, len(text))
		}
		matches[i].Jaccard = hash.DistinctJaccard(query, text[m.Start:m.End+1])
	}
	return nil
}

// Explain returns the deferral plan Search would execute query with,
// without reading any posting lists. The returned Plan is a private
// copy the caller may retain.
func (s *Searcher) Explain(query []uint32, opts Options) (*Plan, error) {
	meta := s.ix.Meta()
	minLen, err := opts.validate(meta, true)
	if err != nil {
		return nil, err
	}
	if len(query) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}
	k := meta.K
	beta := requiredCollisions(k, opts.Theta)
	//lint:ignore ctxflow Explain only sketches and plans; it issues no I/O to cancel
	qc := acquireCtx(context.Background(), opts, minLen, beta, &Stats{K: k, Beta: beta})
	defer releaseCtx(qc)
	if err := s.stageSketch(qc, query); err != nil {
		return nil, err
	}
	s.stagePlan(qc)
	plan := qc.plan
	plan.Long = append([]bool(nil), qc.plan.Long...)
	return &plan, nil
}
