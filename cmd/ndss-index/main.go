// Command ndss-index builds a near-duplicate search index from a corpus
// file.
//
//	ndss-index -corpus corpus.tok -out idx -k 32 -t 50
//
// The corpus is streamed once: a corpus within the -mem budget is built
// in memory in one pass (Algorithm 1's main path); a larger one is built
// in budget-sized batches that are then merged into one index.
//
// Segment-set maintenance runs through subcommands:
//
//	ndss-index list idx      print the segments in an index's manifest
//	ndss-index compact idx   merge the segment set into one segment
//	ndss-index verify idx    validate checksums over every segment file
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ndss/internal/corpus"
	"ndss/internal/index"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		if err := runSubcommand(os.Args[1], os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "ndss-index:", err)
			os.Exit(1)
		}
		return
	}
	corpusPath := flag.String("corpus", "", "corpus file (required)")
	out := flag.String("out", "idx", "output index directory")
	k := flag.Int("k", 32, "number of min-hash functions")
	t := flag.Int("t", 50, "length threshold (minimum indexed sequence length)")
	seed := flag.Int64("seed", 1, "hash family seed")
	memBudget := flag.Int64("mem", 256<<20, "memory budget in bytes; a larger corpus is built in batches and merged")
	parallel := flag.Int("parallel", 0, "window-generation goroutines (0 = GOMAXPROCS)")
	check := flag.Bool("check", false, "verify the integrity of an existing index at -out and exit")
	flag.Parse()
	if *check {
		if err := runCheck(*out); err != nil {
			fmt.Fprintln(os.Stderr, "ndss-index:", err)
			os.Exit(1)
		}
		return
	}
	if *corpusPath == "" {
		fmt.Fprintln(os.Stderr, "ndss-index: -corpus is required")
		os.Exit(2)
	}
	if err := run(*corpusPath, *out, index.BuildOptions{
		K: *k, T: *t, Seed: *seed, MemoryBudget: *memBudget, Parallelism: *parallel,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ndss-index:", err)
		os.Exit(1)
	}
}

// runSubcommand dispatches the segment-maintenance verbs. Each takes
// the index directory as its sole argument.
func runSubcommand(verb string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: ndss-index %s <index-dir>", verb)
	}
	dir := args[0]
	switch verb {
	case "list":
		return runList(dir)
	case "compact":
		return runCompact(dir)
	case "verify":
		return runCheck(dir)
	default:
		return fmt.Errorf("unknown subcommand %q (want list, compact or verify)", verb)
	}
}

// runList prints one line per segment in the index's manifest.
func runList(dir string) error {
	ix, err := index.Open(dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	segs := ix.Segments()
	fmt.Printf("index %s: build %s, %d segment(s)\n", dir, ix.BuildID(), len(segs))
	for _, s := range segs {
		fmt.Printf("  %-12s base=%-8d texts=%-8d tokens=%-10d postings=%-10d bytes=%-10d tombstoned=%d\n",
			s.Name, s.Base, s.NumTexts, s.TotalTokens, s.Postings, s.SizeOnDisk, s.Tombstoned)
	}
	return nil
}

// runCompact merges the segment set into a single segment, dropping
// tombstoned texts, and reports the before/after shape.
func runCompact(dir string) error {
	ix, err := index.Open(dir)
	if err != nil {
		return err
	}
	before := ix.SegmentCount()
	if err := ix.Close(); err != nil {
		return err
	}
	if err := index.Compact(dir); err != nil {
		return err
	}
	ix, err = index.Open(dir)
	if err != nil {
		return fmt.Errorf("reopen compacted index: %w", err)
	}
	defer ix.Close()
	fmt.Printf("compacted %s: %d segment(s) -> %d (build %s)\n",
		dir, before, ix.SegmentCount(), ix.BuildID())
	return nil
}

// runCheck opens the index and validates checksums over every inverted
// file.
func runCheck(dir string) error {
	ix, err := index.Open(dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	if err := ix.VerifyIntegrity(); err != nil {
		return err
	}
	size, err := ix.SizeOnDisk()
	if err != nil {
		return err
	}
	m := ix.Meta()
	fmt.Printf("index %s OK: build %s, k=%d t=%d, %d texts, %d windows, %d bytes\n",
		dir, ix.BuildID(), m.K, m.T, m.NumTexts, ix.TotalPostings(), size)
	return nil
}

func run(corpusPath, out string, opts index.BuildOptions) error {
	r, err := corpus.OpenReader(corpusPath)
	if err != nil {
		return err
	}
	defer r.Close()
	stats, err := index.BuildExternal(r, out, opts)
	if err != nil {
		return err
	}
	ix, err := index.Open(out)
	if err != nil {
		return fmt.Errorf("reopen committed index: %w", err)
	}
	buildID := ix.BuildID()
	if err := ix.Close(); err != nil {
		return fmt.Errorf("close reopened index: %w", err)
	}
	fmt.Printf("index written to %s (build %s)\n", out, buildID)
	fmt.Printf("  compact windows: %d\n", stats.Windows)
	fmt.Printf("  bytes written:   %d\n", stats.BytesWritten)
	fmt.Printf("  generation time: %v\n", stats.GenTime)
	fmt.Printf("  io time:         %v\n", stats.IOTime)
	return nil
}
