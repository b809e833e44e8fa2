package token

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSegmentWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"hello", []string{"hello"}},
		{"hello world", []string{"hello", " world"}},
		{"  leading", []string{"  leading"}},
		{"a b  c", []string{"a", " b", "  c"}},
		{"line\nbreak", []string{"line", "\nbreak"}},
		{"trail ", []string{"trail", " "}},
	}
	for _, c := range cases {
		got := segmentWords(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("segmentWords(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSegmentWordsLossless(t *testing.T) {
	f := func(s string) bool {
		return strings.Join(segmentWords(s), "") == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTrainBPEValidation(t *testing.T) {
	if _, err := TrainBPE([]string{"x"}, 100); err == nil {
		t.Fatal("vocabSize < 256 should fail")
	}
}

func TestBPERoundTrip(t *testing.T) {
	texts := []string{
		"the quick brown fox jumps over the lazy dog",
		"the quick brown fox is quick and brown",
		"pack my box with five dozen liquor jugs",
	}
	b, err := TrainBPE(texts, 300)
	if err != nil {
		t.Fatal(err)
	}
	if b.VocabSize() < 256 {
		t.Fatalf("vocab size %d", b.VocabSize())
	}
	for _, text := range texts {
		ids := b.Encode(text)
		if got := b.Decode(ids); got != text {
			t.Fatalf("round trip: %q -> %q", text, got)
		}
	}
	// Unseen text still round-trips (byte fallback).
	unseen := "zebras yawn at midnight: 42!"
	if got := b.Decode(b.Encode(unseen)); got != unseen {
		t.Fatalf("unseen round trip: %q -> %q", unseen, got)
	}
}

func TestBPECompresses(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.WriteString("the common phrase appears again and again ")
	}
	text := sb.String()
	b, err := TrainBPE([]string{text}, 400)
	if err != nil {
		t.Fatal(err)
	}
	ids := b.Encode(text)
	if len(ids) >= len(text)/2 {
		t.Fatalf("BPE should compress repetitive text: %d tokens for %d bytes", len(ids), len(text))
	}
}

func TestBPEDeterministic(t *testing.T) {
	texts := []string{"abc abd abe abc abd", "xyz abc xyz"}
	a, err := TrainBPE(texts, 280)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainBPE(texts, 280)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.merges, b.merges) {
		t.Fatal("training not deterministic")
	}
}

func TestBPESaveLoad(t *testing.T) {
	texts := []string{"some training data with repeated repeated words words words"}
	b, err := TrainBPE(texts, 300)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBPE(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VocabSize() != b.VocabSize() {
		t.Fatalf("vocab size %d vs %d", loaded.VocabSize(), b.VocabSize())
	}
	text := "repeated words and unseen stuff"
	if !reflect.DeepEqual(b.Encode(text), loaded.Encode(text)) {
		t.Fatal("loaded model encodes differently")
	}
	if _, err := LoadBPE(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should fail to load")
	}
	if _, err := LoadBPE(strings.NewReader(`{"version":9}`)); err == nil {
		t.Fatal("unknown version should fail")
	}
}

func TestBPEDecodeUnknownID(t *testing.T) {
	b, err := TrainBPE([]string{"abc"}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Decode([]uint32{99999}); !strings.Contains(got, "�") {
		t.Fatalf("unknown id decoded to %q", got)
	}
}

func TestBPERoundTripProperty(t *testing.T) {
	b, err := TrainBPE([]string{"seed text for merges merges merges"}, 300)
	if err != nil {
		t.Fatal(err)
	}
	f := func(s string) bool {
		return b.Decode(b.Encode(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWordTokenizer(t *testing.T) {
	wt := NewWordTokenizer()
	ids := wt.Encode("The quick brown fox. The lazy dog!")
	if len(ids) != 7 {
		t.Fatalf("got %d ids: %v", len(ids), ids)
	}
	if ids[0] != ids[4] { // "the" twice
		t.Fatal("same word got different ids")
	}
	if wt.VocabSize() != 6 {
		t.Fatalf("vocab size %d, want 6", wt.VocabSize())
	}
	if wt.Decode(ids) != "the quick brown fox the lazy dog" {
		t.Fatalf("decode: %q", wt.Decode(ids))
	}
	if wt.Word(ids[1]) != "quick" {
		t.Fatalf("Word = %q", wt.Word(ids[1]))
	}
	if wt.Word(9999) != "" {
		t.Fatal("out-of-range Word should be empty")
	}
	if got := wt.Decode([]uint32{9999}); got != "�" {
		t.Fatalf("unknown decode: %q", got)
	}
}
