// Package index implements the paper's inverted index of compact windows
// (§3.4): k inverted files, one per min-hash function, mapping a min-hash
// value to the list of compact windows (TextID, L, C, R) whose sequences
// all carry that min-hash. Lists are ordered by text id and long lists
// carry zone maps for per-text probing (Algorithm 3's prefix filtering
// path).
//
// Three builders are provided: an in-memory builder for corpora that fit
// in RAM (Algorithm 1's main path, one worker per hash function in front
// of one ordered writer), a sharded variant, and an external
// hash-aggregation builder with recursive partitioning for corpora larger
// than memory.
package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Posting locates one compact window: text id plus the window bounds
// (0-based inclusive). Every sequence T[i..j] with L <= i <= C <= j <= R
// of text TextID has the list's min-hash value under the list's hash
// function.
type Posting struct {
	TextID uint32
	L      uint32
	C      uint32
	R      uint32
}

// postingSize is the on-disk size of one posting.
const postingSize = 16

func encodePosting(dst []byte, p Posting) {
	binary.LittleEndian.PutUint32(dst[0:], p.TextID)
	binary.LittleEndian.PutUint32(dst[4:], p.L)
	binary.LittleEndian.PutUint32(dst[8:], p.C)
	binary.LittleEndian.PutUint32(dst[12:], p.R)
}

func decodePosting(src []byte) Posting {
	return Posting{
		TextID: binary.LittleEndian.Uint32(src[0:]),
		L:      binary.LittleEndian.Uint32(src[4:]),
		C:      binary.LittleEndian.Uint32(src[8:]),
		R:      binary.LittleEndian.Uint32(src[12:]),
	}
}

// record pairs a posting with its min-hash value during construction.
type record struct {
	Hash    uint64
	Posting Posting
}

// recordSize is the on-disk size of one spill record (external build).
const recordSize = 24

func encodeRecord(dst []byte, r record) {
	binary.LittleEndian.PutUint64(dst[0:], r.Hash)
	encodePosting(dst[8:], r.Posting)
}

func decodeRecord(src []byte) record {
	return record{
		Hash:    binary.LittleEndian.Uint64(src[0:]),
		Posting: decodePosting(src[8:]),
	}
}

// compareRecords orders records by (hash, text id, L). Postings within
// a list must be ordered by text id for zone maps and per-text probes.
func compareRecords(a, b record) int {
	return cmp.Or(cmp.Compare(a.Hash, b.Hash),
		cmp.Compare(a.Posting.TextID, b.Posting.TextID), cmp.Compare(a.Posting.L, b.Posting.L))
}

// groupByHash copies recs into out (grown when too small) as one run per
// distinct hash, runs ascending by hash and each in its input order, and
// returns out: a stable counting scatter that sorts only the distinct
// hashes, a few thousand per function. recordGen emits a hash's records
// in ascending (TextID, L), so on its output this equals a sort by
// compareRecords; addList checks that order on every list written.
func groupByHash(recs, out []record) []record {
	ids := make(map[uint64]int32)
	group := make([]int32, len(recs)) // group[i] numbers recs[i].Hash in first-seen order
	var hashes []uint64
	var next []int // next[g]: group g's size, then the slot of its next record
	for i, r := range recs {
		g, ok := ids[r.Hash]
		if !ok {
			g = int32(len(hashes))
			ids[r.Hash] = g
			hashes = append(hashes, r.Hash)
			next = append(next, 0)
		}
		next[g]++
		group[i] = g
	}
	byHash := make([]int32, len(hashes))
	for g := range byHash {
		byHash[g] = int32(g)
	}
	slices.SortFunc(byHash, func(a, b int32) int { return cmp.Compare(hashes[a], hashes[b]) })
	off := 0
	for _, g := range byHash {
		size := next[g]
		next[g] = off
		off += size
	}
	if cap(out) < len(recs) {
		out = make([]record, len(recs))
	}
	out = out[:len(recs)]
	for i, r := range recs {
		g := group[i]
		out[next[g]] = r
		next[g]++
	}
	return out
}

func (p Posting) String() string {
	return fmt.Sprintf("{T%d (%d,%d,%d)}", p.TextID, p.L, p.C, p.R)
}
