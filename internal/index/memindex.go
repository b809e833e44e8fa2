package index

import (
	"sort"

	"ndss/internal/corpus"
	"ndss/internal/hash"
)

// MemIndex is a fully in-memory inverted index of compact windows with
// the same read surface as the on-disk Index. It suits small corpora,
// tests, and ephemeral workloads where index persistence is not wanted;
// queries skip all file I/O (IOStats always reads zero).
type MemIndex struct {
	meta   Meta
	family *hash.Family
	// lists[fn] maps min-hash -> postings sorted by text id.
	lists []map[uint64][]Posting
}

// BuildMem builds an in-memory index over a corpus. ZoneMapStep in opts
// is ignored (a probe is a binary search, there are no zones).
// LongListCutoff is recorded in Meta, where it is the query planner's
// only deferral control: with PrefixFilter, lists longer than it are
// deferred.
func BuildMem(c *corpus.Corpus, opts BuildOptions) (*MemIndex, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	fam, err := hash.NewFamily(opts.K, opts.Seed)
	if err != nil {
		return nil, err
	}
	m := &MemIndex{
		meta:   opts.meta(c.NumTexts(), c.TotalTokens()),
		family: fam,
		lists:  make([]map[uint64][]Posting, opts.K),
	}
	var recs []record
	for fn := 0; fn < opts.K; fn++ {
		lists := make(map[uint64][]Posting)
		rg := recordGen{f: fam.Func(fn), t: opts.T}
		// Texts are visited in id order and a text's records arrive
		// ascending in L within a hash, so every list comes out sorted by
		// (text id, L) — the order the on-disk lists have.
		for id := 0; id < c.NumTexts(); id++ {
			recs = rg.appendText(recs[:0], uint32(id), c.Text(uint32(id)))
			for _, r := range recs {
				lists[r.Hash] = append(lists[r.Hash], r.Posting)
			}
		}
		m.lists[fn] = lists
	}
	return m, nil
}

// K returns the number of hash functions.
func (m *MemIndex) K() int { return m.meta.K }

// Meta returns the index metadata.
func (m *MemIndex) Meta() Meta { return m.meta }

// Family returns the hash family queries must sketch with.
func (m *MemIndex) Family() *hash.Family { return m.family }

// ListLength returns the posting count for hash h of function fn.
func (m *MemIndex) ListLength(fn int, h uint64) int { return len(m.lists[fn][h]) }

// HasZoneMap always reports true: MemIndex per-text probes are binary
// searches over the id-sorted in-memory list, so deferral never pays
// the full-read-per-candidate penalty a zone-map-less on-disk list does.
func (m *MemIndex) HasZoneMap(fn int, h uint64) bool { return true }

// ListLengths returns all list lengths of function fn, unordered.
func (m *MemIndex) ListLengths(fn int) []int {
	out := make([]int, 0, len(m.lists[fn]))
	for _, ps := range m.lists[fn] {
		out = append(out, len(ps))
	}
	return out
}

// ReadList returns the postings for hash h of function fn. The slice is
// shared with the index and must not be mutated.
func (m *MemIndex) ReadList(fn int, h uint64) ([]Posting, error) {
	return m.lists[fn][h], nil
}

// ReadListInto appends the postings for hash h of function fn to dst.
// Unlike ReadList, the result never aliases index storage, so callers
// may reuse dst as a scratch buffer across reads. A MemIndex performs
// no I/O, so sink is left untouched.
func (m *MemIndex) ReadListInto(dst []Posting, fn int, h uint64, _ *IOStats) ([]Posting, error) {
	return append(dst, m.lists[fn][h]...), nil
}

// ReadListForText returns only textID's postings within the list for
// hash h of function fn, using binary search over the id-sorted list.
func (m *MemIndex) ReadListForText(fn int, h uint64, textID uint32) ([]Posting, error) {
	ps := m.lists[fn][h]
	lo := sort.Search(len(ps), func(i int) bool { return ps[i].TextID >= textID })
	hi := lo
	for hi < len(ps) && ps[hi].TextID == textID {
		hi++
	}
	if lo == hi {
		return nil, nil
	}
	return ps[lo:hi], nil
}

// ReadListForTextInto is ReadListForText appending into dst, with the
// same no-alias contract as ReadListInto. sink is left untouched (no
// I/O happens).
func (m *MemIndex) ReadListForTextInto(dst []Posting, fn int, h uint64, textID uint32, _ *IOStats) ([]Posting, error) {
	ps, err := m.ReadListForText(fn, h, textID)
	if err != nil {
		return dst, err
	}
	return append(dst, ps...), nil
}

// IOStats reports zeroes: a MemIndex performs no I/O.
func (m *MemIndex) IOStats() IOStats { return IOStats{} }

// TotalPostings returns the total number of indexed compact windows.
func (m *MemIndex) TotalPostings() int64 {
	var n int64
	for _, lists := range m.lists {
		for _, ps := range lists {
			n += int64(len(ps))
		}
	}
	return n
}
