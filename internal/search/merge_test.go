package search

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ndss/internal/index"
)

// randomShortLists draws 1–64 TextID-sorted lists over a small id space:
// some empty, texts repeated within a list as runs of windows that are
// disjoint in (i, j) space (what compact windows of one list within one
// text are), positions crowded so windows of different lists overlap.
func randomShortLists(rng *rand.Rand) [][]index.Posting {
	lists := make([][]index.Posting, 1+rng.Intn(64))
	numTexts := 1 + rng.Intn(24)
	for l := range lists {
		if rng.Intn(6) == 0 {
			continue // empty list
		}
		for id := 0; id < numTexts; id++ {
			if rng.Intn(3) != 0 {
				continue
			}
			pos := uint32(rng.Intn(12))
			for rep := 1 + rng.Intn(3); rep > 0; rep-- {
				c := pos + uint32(rng.Intn(4))
				r := c + uint32(rng.Intn(12))
				lists[l] = append(lists[l], index.Posting{TextID: uint32(id), L: pos, C: c, R: r})
				pos = c + 1 + uint32(rng.Intn(3))
			}
		}
	}
	return lists
}

// gatherLists loads lists into a query context the way stageGather
// does: one arena, one cursor per non-empty list.
func gatherLists(qc *queryCtx, lists [][]index.Posting) {
	qc.postings, qc.lists = qc.postings[:0], qc.lists[:0]
	for _, ps := range lists {
		pos := len(qc.postings)
		qc.postings = append(qc.postings, ps...)
		if len(ps) > 0 {
			qc.lists = append(qc.lists, listCursor{pos: pos, end: len(qc.postings)})
		}
	}
}

func sortedWindows(ws []index.Posting) []index.Posting {
	ws = slices.Clone(ws)
	slices.SortFunc(ws, func(a, b index.Posting) int {
		return slices.Compare([]uint32{a.L, a.C, a.R}, []uint32{b.L, b.C, b.R})
	})
	return ws
}

// TestCountMergeMatchesGrouping pins the exactness of the driver merge:
// over random list sets and every alpha from 1 to S+1, the texts it
// accepts and the windows it hands the count kernel equal those of a
// reference that groups all postings by text in a map and keeps the
// texts hit by at least alpha distinct lists, and the final matches
// equal the reference's sorted output.
func TestCountMergeMatchesGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s := New(nil, nil)
	const minLen = 4
	accepted, rejected, matched := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		lists := randomShortLists(rng)
		for alpha := 1; alpha <= len(lists)+1; alpha++ {
			name := fmt.Sprintf("trial %d alpha %d/%d", trial, alpha, len(lists))

			// Reference: group with a map, count distinct lists per text.
			windows := map[uint32][]index.Posting{}
			hits := map[uint32]int{}
			for _, ps := range lists {
				for i, p := range ps {
					windows[p.TextID] = append(windows[p.TextID], p)
					if i == 0 || ps[i-1].TextID != p.TextID {
						hits[p.TextID]++
					}
				}
			}
			ref := acquireCtx(context.Background(), Options{}, minLen, alpha, &Stats{K: len(lists)})
			ref.plan.Alpha = alpha
			var want []Match
			wantWindows := map[uint32][]index.Posting{}
			for id, n := range hits {
				if n < alpha {
					continue
				}
				wantWindows[id] = sortedWindows(windows[id])
				want = s.mergeText(ref, id, CollisionCount(windows[id], alpha), want)
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].TextID != want[j].TextID {
					return want[i].TextID < want[j].TextID
				}
				return want[i].Start < want[j].Start
			})
			releaseCtx(ref)

			qc := acquireCtx(context.Background(), Options{}, minLen, alpha, &Stats{K: len(lists)})
			qc.plan.Alpha = alpha
			gatherLists(qc, lists)
			gotWindows := map[uint32][]index.Posting{}
			last := -1
			err := qc.mergeCandidates(func(id uint32) error {
				if int(id) <= last {
					t.Fatalf("%s: text %d visited after %d", name, id, last)
				}
				last = int(id)
				var ws []index.Posting
				for _, r := range qc.runs {
					ws = append(ws, qc.postings[r.pos:r.end]...)
				}
				gotWindows[id] = sortedWindows(ws)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotWindows, wantWindows) {
				t.Fatalf("%s: merge accepted\n%v\nreference\n%v", name, gotWindows, wantWindows)
			}

			gatherLists(qc, lists)
			got, err := s.stageCount(qc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: matches\n%v\nreference\n%v", name, got, want)
			}
			releaseCtx(qc)
			accepted += len(wantWindows)
			rejected += len(hits) - len(wantWindows)
			matched += len(want)
		}
	}
	if accepted == 0 || rejected == 0 || matched == 0 {
		t.Fatalf("vacuous run: %d texts accepted, %d rejected, %d matches", accepted, rejected, matched)
	}
	t.Logf("%d texts accepted, %d rejected, %d matches", accepted, rejected, matched)
}

// TestSeekText checks the galloping seek against a linear scan from
// every start position.
func TestSeekText(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		ps := make([]index.Posting, rng.Intn(40))
		id := uint32(0)
		for i := range ps {
			id += uint32(rng.Intn(3))
			ps[i].TextID = id
		}
		for pos := 0; pos <= len(ps); pos++ {
			for target := uint32(0); target <= id+1; target++ {
				want := pos
				for want < len(ps) && ps[want].TextID < target {
					want++
				}
				if got := seekText(ps, pos, len(ps), target); got != want {
					t.Fatalf("seekText(%v, %d, %d) = %d, want %d", ps, pos, target, got, want)
				}
			}
		}
	}
}
