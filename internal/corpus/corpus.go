// Package corpus provides the tokenized-corpus substrate: an in-memory
// corpus model, a binary on-disk format with random access, streaming
// batch readers for out-of-core index construction, and a synthetic
// corpus generator with Zipf-distributed token frequencies and
// controlled near-duplicate injection.
//
// A corpus is an ordered collection of texts; a text is a sequence of
// 32-bit token ids (the paper stores each token as a 4-byte integer).
// Text ids are dense indexes 0..NumTexts-1.
package corpus

import (
	"fmt"
	"math"
)

// Corpus is an in-memory tokenized corpus. The zero value is an empty
// corpus ready for use.
type Corpus struct {
	texts [][]uint32
}

// New creates a corpus from pre-tokenized texts. The slices are retained,
// not copied.
func New(texts [][]uint32) *Corpus {
	return &Corpus{texts: texts}
}

// Append adds a text and returns its id.
func (c *Corpus) Append(tokens []uint32) uint32 {
	c.texts = append(c.texts, tokens)
	return uint32(len(c.texts) - 1)
}

// NumTexts returns the number of texts.
func (c *Corpus) NumTexts() int { return len(c.texts) }

// Text returns the token sequence of text id. It panics on an invalid
// id; use NumTexts to bound ids.
func (c *Corpus) Text(id uint32) []uint32 {
	if int(id) >= len(c.texts) {
		panic(fmt.Sprintf("corpus: text id %d out of range [0, %d)", id, len(c.texts)))
	}
	return c.texts[id]
}

// Sequence returns tokens [i, j] (0-based, inclusive) of text id.
func (c *Corpus) Sequence(id uint32, i, j int32) []uint32 {
	text := c.Text(id)
	if i < 0 || j >= int32(len(text)) || i > j {
		panic(fmt.Sprintf("corpus: invalid sequence [%d, %d] in text %d of length %d",
			i, j, id, len(text)))
	}
	return text[i : j+1]
}

// ReadText returns the token sequence of text id, mirroring
// Reader.ReadText so in-memory corpora and corpus files satisfy the same
// text-source interfaces.
func (c *Corpus) ReadText(id uint32) ([]uint32, error) {
	if int(id) >= len(c.texts) {
		return nil, fmt.Errorf("corpus: text id %d out of range [0, %d)", id, len(c.texts))
	}
	return c.texts[id], nil
}

// TotalTokens returns the total number of tokens across all texts.
func (c *Corpus) TotalTokens() int64 {
	var n int64
	for _, t := range c.texts {
		n += int64(len(t))
	}
	return n
}

// Stats summarizes corpus shape.
type Stats struct {
	NumTexts       int
	TotalTokens    int64
	DistinctTokens int
	MinTextLen     int
	MaxTextLen     int
	MeanTextLen    float64
}

// Stats computes summary statistics in one pass.
func (c *Corpus) Stats() Stats {
	s := Stats{NumTexts: len(c.texts)}
	if len(c.texts) == 0 {
		return s
	}
	seen := make(map[uint32]struct{})
	s.MinTextLen = math.MaxInt
	for _, t := range c.texts {
		s.TotalTokens += int64(len(t))
		if len(t) < s.MinTextLen {
			s.MinTextLen = len(t)
		}
		if len(t) > s.MaxTextLen {
			s.MaxTextLen = len(t)
		}
		for _, tok := range t {
			seen[tok] = struct{}{}
		}
	}
	s.DistinctTokens = len(seen)
	s.MeanTextLen = float64(s.TotalTokens) / float64(s.NumTexts)
	return s
}
