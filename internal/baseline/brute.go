// Package baseline provides the comparison systems the paper's
// evaluation is framed against: an exact brute-force scan of Definition
// 2 (ground truth for the index-based algorithm), a suffix-array
// exact-substring index (the "exact memorization" tooling of prior
// work), and a seed-and-extend heuristic (the related-work approach
// without guarantees).
package baseline

import (
	"sort"

	"ndss/internal/corpus"
	"ndss/internal/hash"
	"ndss/internal/search"
)

// Span is a reported near-duplicate region in a text.
type Span struct {
	TextID     uint32
	Start, End int32
}

// MinHashScan answers Definition 2 by brute force: it enumerates every
// sequence of length >= t in every text, counts min-hash collisions with
// the query incrementally, and merges overlapping qualifying sequences.
// O(k * n^2) per text — usable only at test scale, but exact by
// construction.
func MinHashScan(c *corpus.Corpus, fam *hash.Family, query []uint32, theta float64, t int) []Span {
	k := fam.K()
	qs, err := fam.Sketch(query)
	if err != nil {
		return nil
	}
	var out []Span
	mins := make([]uint64, k)
	for id := 0; id < c.NumTexts(); id++ {
		text := c.Text(uint32(id))
		var qualifying []search.Interval
		for i := 0; i < len(text); i++ {
			for fn := 0; fn < k; fn++ {
				mins[fn] = fam.Func(fn).Hash(text[i])
			}
			for j := i; j < len(text); j++ {
				if j > i {
					for fn := 0; fn < k; fn++ {
						if h := fam.Func(fn).Hash(text[j]); h < mins[fn] {
							mins[fn] = h
						}
					}
				}
				if j-i+1 < t {
					continue
				}
				coll := 0
				for fn := 0; fn < k; fn++ {
					if mins[fn] == qs[fn] {
						coll++
					}
				}
				// Definition 2 per sequence: the estimate coll/k reaches θ.
				if float64(coll)/float64(k) >= theta {
					qualifying = append(qualifying, search.Interval{Lo: int32(i), Hi: int32(j)})
				}
			}
		}
		out = appendMergedSpans(out, uint32(id), qualifying)
	}
	return out
}

// appendMergedSpans merges overlapping qualifying intervals of one text
// and appends them to out.
func appendMergedSpans(out []Span, textID uint32, qualifying []search.Interval) []Span {
	if len(qualifying) == 0 {
		return out
	}
	sort.Slice(qualifying, func(a, b int) bool {
		if qualifying[a].Lo != qualifying[b].Lo {
			return qualifying[a].Lo < qualifying[b].Lo
		}
		return qualifying[a].Hi < qualifying[b].Hi
	})
	cur := qualifying[0]
	for _, iv := range qualifying[1:] {
		if iv.Lo <= cur.Hi {
			if iv.Hi > cur.Hi {
				cur.Hi = iv.Hi
			}
		} else {
			out = append(out, Span{TextID: textID, Start: cur.Lo, End: cur.Hi})
			cur = iv
		}
	}
	return append(out, Span{TextID: textID, Start: cur.Lo, End: cur.Hi})
}
