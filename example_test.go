package ndss_test

import (
	"fmt"
	"log"
	"os"

	"ndss"
)

// A tiny corpus where text 1 embeds an edited copy of text 0's opening.
func exampleTexts() [][]uint32 {
	t0 := make([]uint32, 60)
	for i := range t0 {
		t0[i] = uint32(1000 + i)
	}
	t1 := make([]uint32, 60)
	for i := range t1 {
		t1[i] = uint32(2000 + i)
	}
	copy(t1[10:40], t0[0:30]) // lift 30 tokens...
	t1[15] = 7                // ...and edit two of them
	t1[30] = 8
	return [][]uint32{t0, t1}
}

// Example demonstrates the build-then-search workflow.
func Example() {
	texts := exampleTexts()
	dir, err := os.MkdirTemp("", "ndss-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	if _, err := ndss.BuildIndex(texts, dir, ndss.BuildOptions{K: 32, Seed: 1, T: 20}); err != nil {
		log.Fatal(err)
	}
	db, err := ndss.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Query with text 0's opening: both the source and the edited copy
	// in text 1 qualify at theta 0.8.
	matches, _, err := db.Search(texts[0][:30], ndss.SearchOptions{Theta: 0.8})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("text %d: span [%d, %d]\n", m.TextID, m.Start, m.End)
	}
	// Output:
	// text 0: span [0, 35]
	// text 1: span [6, 43]
}

// ExampleDB_Search_limit ranks matches by similarity: a search with a
// Limit keeps the best matches, best first.
func ExampleDB_Search_limit() {
	texts := exampleTexts()
	dir, err := os.MkdirTemp("", "ndss-topk-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := ndss.BuildIndex(texts, dir, ndss.BuildOptions{K: 32, Seed: 1, T: 20}); err != nil {
		log.Fatal(err)
	}
	db, err := ndss.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	matches, _, err := db.Search(texts[0][:30], ndss.SearchOptions{Theta: 0.5, Limit: 1})
	if err != nil {
		log.Fatal(err)
	}
	// The verbatim source outranks the edited copy.
	fmt.Printf("best: text %d with %d/32 collisions\n", matches[0].TextID, matches[0].Collisions)
	// Output:
	// best: text 0 with 32/32 collisions
}
