package token

import (
	"strings"
	"unicode"
)

// WordTokenizer is a simple word-level tokenizer: text is lowercased and
// split on non-letter/digit runs, and each distinct word receives the
// next free id on first sight. It is the quick alternative to BPE for
// examples and tests on natural-language text.
type WordTokenizer struct {
	vocab map[string]uint32
	words []string
}

// NewWordTokenizer returns an empty tokenizer.
func NewWordTokenizer() *WordTokenizer {
	return &WordTokenizer{vocab: make(map[string]uint32)}
}

// VocabSize returns the number of distinct words seen so far.
func (t *WordTokenizer) VocabSize() int { return len(t.words) }

// Encode tokenizes text, growing the vocabulary as new words appear.
func (t *WordTokenizer) Encode(text string) []uint32 {
	var out []uint32
	for _, w := range splitWords(text) {
		id, ok := t.vocab[w]
		if !ok {
			id = uint32(len(t.words))
			t.vocab[w] = id
			t.words = append(t.words, w)
		}
		out = append(out, id)
	}
	return out
}

// Decode reconstructs a space-joined approximation of the source text.
func (t *WordTokenizer) Decode(ids []uint32) string {
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		if int(id) < len(t.words) {
			parts = append(parts, t.words[id])
		} else {
			parts = append(parts, "�")
		}
	}
	return strings.Join(parts, " ")
}

// Word returns the word of a token id, or "" when out of range.
func (t *WordTokenizer) Word(id uint32) string {
	if int(id) < len(t.words) {
		return t.words[id]
	}
	return ""
}

func splitWords(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}
