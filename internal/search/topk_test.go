package search

import (
	"math"
	"strings"
	"testing"

	"ndss/internal/corpus"
)

func TestSearchTopK(t *testing.T) {
	// Three texts carrying copies of a passage with 0, 2 and 5 edits:
	// top-k must rank them in that order.
	base := make([]uint32, 40)
	for i := range base {
		base[i] = uint32(100 + i)
	}
	exact := append([]uint32{}, base...)
	twoEdits := append([]uint32{}, base...)
	twoEdits[5], twoEdits[20] = 9001, 9002
	fiveEdits := append([]uint32{}, base...)
	for i, p := range []int{3, 11, 19, 27, 35} {
		fiveEdits[p] = uint32(9100 + i)
	}
	noise := make([]uint32, 40)
	for i := range noise {
		noise[i] = uint32(5000 + i)
	}
	c := corpus.New([][]uint32{exact, twoEdits, fiveEdits, noise})
	ix := buildTestIndex(t, c, 32, 61, 10, 0, 0)
	s := New(ix, c)

	ms, st, err := s.SearchTopK(base, TopKOptions{N: 2, FloorTheta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != len(ms) {
		t.Fatalf("stats.Matches = %d, len = %d", st.Matches, len(ms))
	}
	if len(ms) != 2 {
		t.Fatalf("got %d matches, want 2", len(ms))
	}
	if ms[0].TextID != 0 || ms[1].TextID != 1 {
		t.Fatalf("ranking wrong: %+v", ms)
	}
	if ms[0].Collisions < ms[1].Collisions {
		t.Fatalf("not sorted by collisions: %+v", ms)
	}

	// N larger than available returns everything above the floor.
	all, _, err := s.SearchTopK(base, TopKOptions{N: 100, FloorTheta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint32]bool{}
	for _, m := range all {
		ids[m.TextID] = true
	}
	if !ids[0] || !ids[1] || ids[3] {
		t.Fatalf("unexpected result set: %+v", all)
	}
}

// TestSearchTopKTies: when several matches share the boundary collision
// count, ranking must fall back to (TextID, Start) so the order — and
// the truncation at N — is deterministic across runs.
func TestSearchTopKTies(t *testing.T) {
	// Five identical copies of one passage: all five matches collide on
	// every min-hash, a five-way tie at the truncation boundary.
	passage := make([]uint32, 40)
	for i := range passage {
		passage[i] = uint32(200 + i)
	}
	const copies = 5
	var texts [][]uint32
	for i := 0; i < copies; i++ {
		texts = append(texts, append([]uint32{}, passage...))
	}
	noise := make([]uint32, 40)
	for i := range noise {
		noise[i] = uint32(7000 + i)
	}
	texts = append(texts, noise)
	c := corpus.New(texts)
	ix := buildTestIndex(t, c, 16, 91, 10, 0, 0)
	s := New(ix, c)

	const n = 3
	var first []Match
	for run := 0; run < 5; run++ {
		ms, _, err := s.SearchTopK(passage, TopKOptions{N: n, FloorTheta: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != n {
			t.Fatalf("run %d: got %d matches, want %d", run, len(ms), n)
		}
		for i, m := range ms {
			if m.TextID != uint32(i) {
				t.Fatalf("run %d: rank %d is text %d, want %d (tie not broken by TextID)",
					run, i, m.TextID, i)
			}
			if m.Collisions != ms[0].Collisions {
				t.Fatalf("run %d: collision counts differ among identical copies: %+v", run, ms)
			}
		}
		if run == 0 {
			first = ms
		} else {
			for i := range ms {
				if ms[i].TextID != first[i].TextID || ms[i].Start != first[i].Start ||
					ms[i].End != first[i].End || ms[i].Collisions != first[i].Collisions {
					t.Fatalf("run %d: truncation unstable: %+v vs %+v", run, ms[i], first[i])
				}
			}
		}
	}
}

func TestSearchTopKValidation(t *testing.T) {
	c := smallDupCorpus(5, 20, 40, 30, 3)
	ix := buildTestIndex(t, c, 4, 63, 5, 0, 0)
	s := New(ix, c)
	q := c.Text(0)[:10]
	if _, _, err := s.SearchTopK(q, TopKOptions{N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, _, err := s.SearchTopK(q, TopKOptions{N: 5, FloorTheta: 1.5}); err == nil {
		t.Error("FloorTheta > 1 should fail")
	}
	if _, _, err := s.SearchTopK(q, TopKOptions{N: 5, FloorTheta: math.NaN()}); err == nil || !strings.Contains(err.Error(), "FloorTheta") {
		t.Errorf("FloorTheta NaN: got %v, want the FloorTheta range error", err)
	}
	if _, _, err := s.SearchTopK(q, TopKOptions{N: 5}); err != nil {
		t.Errorf("default floor should work: %v", err)
	}
}
