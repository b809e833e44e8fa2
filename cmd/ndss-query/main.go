// Command ndss-query runs near-duplicate sequence searches against an
// index.
//
// Query with an explicit token sequence:
//
//	ndss-query -index idx -corpus corpus.tok -theta 0.8 -tokens 5,17,99,...
//
// Or take the query from a region of a corpus text (useful for
// self-similarity checks):
//
//	ndss-query -index idx -corpus corpus.tok -theta 0.8 -from-text 42 -at 100 -len 64
//
// Batch mode reads one query per line (comma- or space-separated token
// ids; blank lines and #-comments skipped) and runs them over a worker
// pool, printing each query's exact I/O/CPU split:
//
//	ndss-query -index idx -theta 0.8 -queries queries.txt -parallel 8
//
// In batch mode the exit status is non-zero if any query errored.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ndss"
	"ndss/internal/corpus"
	"ndss/internal/search"
)

func main() {
	idxDir := flag.String("index", "idx", "index directory")
	corpusPath := flag.String("corpus", "", "corpus file (enables -verify and -from-text)")
	theta := flag.Float64("theta", 0.8, "Jaccard similarity threshold")
	tokens := flag.String("tokens", "", "comma-separated query token ids")
	fromText := flag.Int("from-text", -1, "take the query from this corpus text id")
	at := flag.Int("at", 0, "query start offset within -from-text")
	length := flag.Int("len", 64, "query length for -from-text")
	prefix := flag.Bool("prefix", true, "use prefix filtering")
	verify := flag.Bool("verify", false, "verify exact Jaccard of matches")
	queriesPath := flag.String("queries", "", "file with one query per line (batch mode)")
	parallel := flag.Int("parallel", 1, "batch-mode query workers")
	verbose := flag.Bool("v", false, "print the per-stage latency split (sketch/plan/gather/count/merge/verify)")
	flag.Parse()

	err := run(*idxDir, *corpusPath, *theta, *tokens, *fromText, *at, *length,
		*prefix, *verify, *queriesPath, *parallel, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndss-query:", err)
		os.Exit(1)
	}
}

func run(idxDir, corpusPath string, theta float64, tokens string, fromText, at, length int,
	prefix, verify bool, queriesPath string, parallel int, verbose bool) error {
	// Reject inconsistent flag combinations before touching the index so
	// misuse fails fast instead of after an expensive open.
	if verify && corpusPath == "" {
		return fmt.Errorf("-verify requires -corpus (exact Jaccard needs the text content)")
	}
	if queriesPath != "" && (tokens != "" || fromText >= 0) {
		return fmt.Errorf("-queries (batch mode) conflicts with -tokens/-from-text; provide one query source")
	}
	db, err := ndss.Open(idxDir)
	if err != nil {
		return err
	}
	defer db.Close()
	var reader *corpus.Reader
	if corpusPath != "" {
		if reader, err = corpus.OpenReader(corpusPath); err != nil {
			return err
		}
		if err := db.Attach(reader); err != nil { // db now owns reader
			return err
		}
	}

	opts := search.Options{Theta: theta, PrefixFilter: prefix, Verify: verify}
	if queriesPath != "" {
		return runBatch(db, queriesPath, opts, parallel, verbose)
	}

	var query []uint32
	switch {
	case tokens != "":
		query, err = parseTokens(tokens)
		if err != nil {
			return err
		}
	case fromText >= 0:
		if reader == nil {
			return fmt.Errorf("-from-text requires -corpus")
		}
		text, err := reader.ReadText(uint32(fromText))
		if err != nil {
			return err
		}
		if at < 0 || at+length > len(text) {
			return fmt.Errorf("region [%d, %d) out of range for text of %d tokens", at, at+length, len(text))
		}
		query = text[at : at+length]
	default:
		return fmt.Errorf("provide -tokens, -from-text or -queries")
	}

	matches, stats, err := db.Search(query, opts)
	if err != nil {
		return err
	}
	fmt.Printf("query: %d tokens, theta %.2f, beta %d/%d collisions required\n",
		len(query), theta, stats.Beta, stats.K)
	fmt.Printf("latency: total %v (io %v, cpu %v), %d bytes read\n",
		stats.Total, stats.IOTime, stats.CPUTime, stats.IOBytes)
	if verbose {
		printStageSplit("stages", stats.StageTimes)
	}
	fmt.Printf("lists: %d short, %d long; %d candidate texts\n",
		stats.ShortLists, stats.LongLists, stats.Candidates)
	if len(matches) == 0 {
		fmt.Println("no near-duplicate sequences found")
		return nil
	}
	fmt.Printf("%d near-duplicate span(s):\n", len(matches))
	for _, m := range matches {
		line := fmt.Sprintf("  text %d [%d, %d] collisions %d (est. Jaccard %.3f)",
			m.TextID, m.Start, m.End, m.Collisions, m.EstJaccard)
		if verify {
			line += fmt.Sprintf(" exact span Jaccard %.3f", m.Jaccard)
		}
		fmt.Println(line)
	}
	return nil
}

// printStageSplit renders one line per pipeline stage, aligned, so the
// dominant stage of a slow query is visible at a glance.
func printStageSplit(label string, t search.StageTimes) {
	fmt.Printf("%s:\n", label)
	for i, d := range t.Durations() {
		fmt.Printf("  %-7s %v\n", search.StageNames[i], d)
	}
}

// runBatch runs the queries in path over a worker pool and prints each
// query's result with its exact per-query I/O/CPU split.
func runBatch(db *ndss.DB, path string, opts search.Options, parallel int, verbose bool) error {
	queries, lines, err := readQueriesFile(path)
	if err != nil {
		return err
	}
	if len(queries) == 0 {
		return fmt.Errorf("%s: no queries", path)
	}
	results := db.SearchBatch(queries, opts, parallel)
	failed := 0
	var ioBytes int64
	for i, res := range results {
		if res.Err != nil {
			failed++
			fmt.Printf("query %d (line %d): ERROR: %v\n", i, lines[i], res.Err)
			continue
		}
		st := res.Stats
		ioBytes += st.IOBytes
		fmt.Printf("query %d (line %d): %d match(es), total %v (io %v, cpu %v), %d bytes read\n",
			i, lines[i], len(res.Matches), st.Total, st.IOTime, st.CPUTime, st.IOBytes)
	}
	fmt.Printf("batch: %d queries, %d failed, %d workers, %d bytes read\n",
		len(queries), failed, parallel, ioBytes)
	if verbose {
		if total, n := search.BatchStageTimes(results); n > 0 {
			printStageSplit(fmt.Sprintf("stages (sum over %d queries)", n), total)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d queries failed", failed, len(queries))
	}
	return nil
}

// readQueriesFile parses one query per line; commas and whitespace both
// separate token ids. Blank lines and lines starting with # are
// skipped. The returned line numbers (1-based) parallel the queries.
func readQueriesFile(path string) ([][]uint32, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var queries [][]uint32
	var lines []int
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := parseTokens(line)
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		queries = append(queries, q)
		lines = append(lines, n)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return queries, lines, nil
}

func parseTokens(s string) ([]uint32, error) {
	var out []uint32
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		v, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad token %q: %w", part, err)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}
