package lm

import (
	"math/rand"
	"testing"

	"ndss/internal/corpus"
)

func benchTrainCorpus(b *testing.B) *corpus.Corpus {
	b.Helper()
	return corpus.MustSynthesize(corpus.SynthConfig{
		NumTexts: 200, MinLength: 100, MaxLength: 300,
		VocabSize: 10000, ZipfS: 1.1, Seed: 1,
	})
}

func BenchmarkTrainOrder3(b *testing.B) {
	c := benchTrainCorpus(b)
	b.SetBytes(c.TotalTokens() * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(c, Config{Order: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateTopK(b *testing.B) {
	c := benchTrainCorpus(b)
	m, err := Train(c, Config{Order: 3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Generate(nil, 128, TopK{K: 50}, rng)
	}
}
