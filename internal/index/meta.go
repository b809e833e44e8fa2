package index

import "fmt"

// Meta describes an index or one of its segments. It is stored as JSON
// inside the manifest (see manifest.go), once per segment and once
// aggregated over the segment set.
type Meta struct {
	// K is the number of hash functions (and inverted files a segment holds).
	K int `json:"k"`
	// Seed derives the hash family; queries must use the same family.
	Seed int64 `json:"seed"`
	// T is the length threshold: only sequences with at least T tokens
	// are indexed.
	T int `json:"t"`
	// NumTexts and TotalTokens describe the indexed corpus.
	NumTexts    int   `json:"num_texts"`
	TotalTokens int64 `json:"total_tokens"`
	// ZoneMapStep is the number of postings per zone in long lists.
	ZoneMapStep int `json:"zone_map_step"`
	// LongListCutoff is the posting count above which a list gets a
	// zone map. It also decides deferral: with PrefixFilter, the query
	// planner defers exactly the lists longer than it (at most beta-1,
	// longest first).
	LongListCutoff int `json:"long_list_cutoff"`
}

func (m Meta) validate() error {
	if m.K <= 0 || m.T <= 0 {
		return fmt.Errorf("index: invalid meta: k=%d t=%d", m.K, m.T)
	}
	return nil
}
