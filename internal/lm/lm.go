// Package lm provides the language-model substrate for the memorization
// evaluation (paper §5). The paper samples from pre-trained GPT-2 /
// GPT-Neo checkpoints of growing size; offline we substitute a back-off
// n-gram language model whose "model size" is a capacity knob (maximum
// n-gram order × number of retained contexts). Like the neural models,
// a larger-capacity n-gram model reproduces longer training spans
// verbatim, which is exactly the behaviour the evaluation pipeline
// measures — see DESIGN.md's substitution table.
//
// The generation strategies are the paper's samplers: greedy search,
// random sampling, top-k sampling and top-p (nucleus) sampling. Beam
// search is not implemented; no evaluation here decodes with it.
package lm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"ndss/internal/corpus"
)

// Config controls model training.
type Config struct {
	// Order is the maximum n-gram order; contexts of up to Order-1
	// tokens are conditioned on. Must be >= 1.
	Order int
	// MaxContexts caps the number of retained contexts across all
	// orders — the capacity knob standing in for parameter count. The
	// highest-frequency contexts are kept. Zero means unlimited.
	MaxContexts int
}

// Cand is one candidate next token with its training count.
type Cand struct {
	Token uint32
	Count int64
}

// dist is the next-token distribution of one context, sorted by
// descending count (ties by token id for determinism).
type dist struct {
	cands []Cand
	total int64
}

// Model is a trained back-off n-gram language model.
type Model struct {
	order int
	// tables[o] maps a context of o tokens (byte-encoded) to its
	// distribution.
	tables []map[string]*dist
}

// contextKey encodes a token slice as a map key.
func contextKey(ctx []uint32) string {
	buf := make([]byte, 4*len(ctx))
	for i, tok := range ctx {
		binary.LittleEndian.PutUint32(buf[4*i:], tok)
	}
	return string(buf)
}

// Train builds a model from a corpus.
func Train(c *corpus.Corpus, cfg Config) (*Model, error) {
	if cfg.Order < 1 {
		return nil, fmt.Errorf("lm: Order must be >= 1, got %d", cfg.Order)
	}
	counts := make([]map[string]map[uint32]int64, cfg.Order)
	for o := range counts {
		counts[o] = make(map[string]map[uint32]int64)
	}
	for id := 0; id < c.NumTexts(); id++ {
		text := c.Text(uint32(id))
		for i := 0; i < len(text); i++ {
			next := text[i]
			for o := 0; o < cfg.Order && o <= i; o++ {
				key := contextKey(text[i-o : i])
				m := counts[o][key]
				if m == nil {
					m = make(map[uint32]int64)
					counts[o][key] = m
				}
				m[next]++
			}
		}
	}
	model := &Model{order: cfg.Order, tables: make([]map[string]*dist, cfg.Order)}
	for o := range model.tables {
		model.tables[o] = make(map[string]*dist, len(counts[o]))
	}

	// Capacity pruning: keep the highest-total contexts. The empty
	// (unigram) context is always retained so generation never dies.
	type ctxRef struct {
		order int
		key   string
		total int64
	}
	var refs []ctxRef
	for o := range counts {
		for key, m := range counts[o] {
			var total int64
			for _, n := range m {
				total += n
			}
			refs = append(refs, ctxRef{order: o, key: key, total: total})
		}
	}
	if cfg.MaxContexts > 0 && len(refs) > cfg.MaxContexts {
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].total != refs[j].total {
				return refs[i].total > refs[j].total
			}
			if refs[i].order != refs[j].order {
				return refs[i].order < refs[j].order
			}
			return refs[i].key < refs[j].key
		})
		kept := refs[:cfg.MaxContexts]
		hasRoot := false
		for _, r := range kept {
			if r.order == 0 {
				hasRoot = true
				break
			}
		}
		if !hasRoot {
			kept[len(kept)-1] = ctxRef{order: 0, key: ""}
		}
		refs = kept
	}
	for _, r := range refs {
		m := counts[r.order][r.key]
		d := &dist{cands: make([]Cand, 0, len(m))}
		for tok, n := range m {
			d.cands = append(d.cands, Cand{Token: tok, Count: n})
			d.total += n
		}
		sort.Slice(d.cands, func(i, j int) bool {
			if d.cands[i].Count != d.cands[j].Count {
				return d.cands[i].Count > d.cands[j].Count
			}
			return d.cands[i].Token < d.cands[j].Token
		})
		model.tables[r.order][r.key] = d
	}
	return model, nil
}

// Order returns the model's maximum n-gram order.
func (m *Model) Order() int { return m.order }

// NumContexts returns the number of retained contexts (the effective
// model size).
func (m *Model) NumContexts() int {
	n := 0
	for _, t := range m.tables {
		n += len(t)
	}
	return n
}

// NextDistribution returns the next-token candidates after context,
// backing off to shorter contexts until one is known. The returned slice
// is shared with the model and must not be modified.
func (m *Model) NextDistribution(context []uint32) []Cand {
	maxCtx := m.order - 1
	if len(context) < maxCtx {
		maxCtx = len(context)
	}
	for o := maxCtx; o >= 0; o-- {
		key := contextKey(context[len(context)-o:])
		if d, ok := m.tables[o][key]; ok {
			return d.cands
		}
	}
	return nil
}

// Generate produces length tokens after the (possibly empty) prompt
// using the given sampler. The prompt is not included in the output.
// Generation stops early only if the model is completely empty.
func (m *Model) Generate(prompt []uint32, length int, s Sampler, rng *rand.Rand) []uint32 {
	history := append([]uint32{}, prompt...)
	out := make([]uint32, 0, length)
	for i := 0; i < length; i++ {
		cands := m.NextDistribution(history)
		if len(cands) == 0 {
			break
		}
		tok := s.Pick(cands, rng)
		out = append(out, tok)
		history = append(history, tok)
	}
	return out
}
