package main

import (
	"math/rand"
	"testing"
)

// TestBestWindowFindsPlantedQuery plants a query, whole and with one
// token changed, at a known offset inside a longer span of unrelated
// tokens: the best window must be found at that offset.
func TestBestWindowFindsPlantedQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	query := make([]uint32, 32)
	for i := range query {
		query[i] = uint32(1000 + i)
	}
	const at = 77
	for _, tc := range []struct {
		name    string
		mutate  bool
		wantJac float64
	}{{"exact", false, 1}, {"near", true, 31.0 / 33}} {
		span := make([]uint32, 200)
		for i := range span {
			span[i] = uint32(rng.Intn(500))
		}
		copy(span[at:], query)
		if tc.mutate {
			span[at+5] = 2000
		}
		if off, j := bestWindow(query, span); off != at || j != tc.wantJac {
			t.Errorf("%s: best window at %d with J %v, want %d with J %v", tc.name, off, j, at, tc.wantJac)
		}
	}
	if off, j := bestWindow(query, query[3:20]); off != 0 || j != 17.0/32 {
		t.Errorf("span shorter than the query: window at %d with J %v, want 0 with J %v", off, j, 17.0/32)
	}
}
