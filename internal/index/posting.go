// Package index implements the paper's inverted index of compact windows
// (§3.4): k inverted files, one per min-hash function, mapping a min-hash
// value to the list of compact windows (TextID, L, C, R) whose sequences
// all carry that min-hash. Lists are ordered by text id and long lists
// carry zone maps for per-text probing (Algorithm 3's prefix filtering
// path).
//
// Build indexes a corpus that fits in RAM (Algorithm 1's main path, one
// worker per hash function in front of one ordered writer);
// BuildExternal streams a corpus file once in memory-budget-sized
// batches, builds each with Build's pipeline and merges them, for
// corpora larger than memory.
package index

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

func appendPosting(dst []byte, p Posting) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, p.TextID)
	dst = binary.LittleEndian.AppendUint32(dst, p.L)
	dst = binary.LittleEndian.AppendUint32(dst, p.C)
	return binary.LittleEndian.AppendUint32(dst, p.R)
}

// record pairs a posting with its min-hash value during construction.
type record struct {
	Hash    uint64
	Posting Posting
}

// recordSize is a record's size in memory.
const recordSize = 24

// grouped is one hash function's postings grouped into its inverted
// lists, ascending by hash: list i is ps[runs[i-1].end:runs[i].end]
// (from 0 for i = 0) and holds the postings of hash runs[i].hash.
type grouped struct {
	ps   []Posting
	runs []run
}

// run is one row of grouped's run table.
type run struct {
	hash uint64
	end  int
}

// runSize is a run's size in memory.
const runSize = 16

// groupByHash groups recs into out, reusing its slices: out.ps holds
// one run per distinct hash, runs ascending by hash and each in its
// input order, and out.runs ends each. It sorts recs in place, stably
// by hash, with tmp (grown to len(recs) when shorter) as scratch, and
// returns tmp for reuse. recordGen emits a hash's records in ascending
// (TextID, L), so on its output each list is in the order the writer
// checks.
func groupByHash(recs []record, out grouped, tmp []record) (grouped, []record) {
	n := len(recs)
	tmp = slices.Grow(tmp[:0], n)[:n]
	sortRecords(recs, tmp)
	out.ps, out.runs = slices.Grow(out.ps[:0], n)[:n], out.runs[:0]
	for i, r := range recs {
		out.ps[i] = r.Posting
		if i+1 == n || recs[i+1].Hash != r.Hash {
			out.runs = append(out.runs, run{hash: r.Hash, end: i + 1})
		}
	}
	return out, tmp
}

// insertionMax is the longest run sortRecords sorts by insertion.
const insertionMax = 24

// sortRecords stably sorts recs by hash, using tmp (as long) as
// scratch. It is a most-significant-digit radix sort whose digit is the
// top 8 bits in which the hashes still differ, so it splits their
// actual range, not the full 64 bits, and a run of one hash costs a
// scan; records of one hash keep their input order. Each level fixes
// at least 8 bits, so there are at most 8.
func sortRecords(recs, tmp []record) {
	if len(recs) <= insertionMax {
		for i := 1; i < len(recs); i++ {
			r := recs[i]
			j := i
			for ; j > 0 && recs[j-1].Hash > r.Hash; j-- {
				recs[j] = recs[j-1]
			}
			recs[j] = r
		}
		return
	}
	var diff uint64
	for _, r := range recs {
		diff |= r.Hash ^ recs[0].Hash
	}
	if diff == 0 {
		return
	}
	shift := max(bits.Len64(diff)-8, 0)
	var start [257]int
	for _, r := range recs {
		start[int(byte(r.Hash>>shift))+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	next := start
	for _, r := range recs {
		d := byte(r.Hash >> shift)
		tmp[next[d]] = r
		next[d]++
	}
	copy(recs, tmp)
	for d := 0; d < 256; d++ {
		if lo, hi := start[d], start[d+1]; hi-lo > 1 {
			sortRecords(recs[lo:hi], tmp[lo:hi])
		}
	}
}

func (p Posting) String() string {
	return fmt.Sprintf("{T%d (%d,%d,%d)}", p.TextID, p.L, p.C, p.R)
}
