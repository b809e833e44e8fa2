// Command ndss-bench regenerates the paper's tables and figures (see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded
// results).
//
// Run everything:
//
//	ndss-bench -run all
//
// Run one experiment:
//
//	ndss-bench -run fig3ab
//
// List experiments:
//
//	ndss-bench -list
//
// Performance tracking is not this command's job: the repo benchmark
// (BENCHMARK.json, bash benchmark/run.sh) is the one harness for that.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ndss/internal/experiments"
)

func main() {
	run := flag.String("run", "", "experiment id or 'all'")
	list := flag.Bool("list", false, "list experiment ids")
	workDir := flag.String("workdir", "", "working directory for indexes (default: temp dir)")
	scale := flag.Int("scale", 1, "corpus scale multiplier")
	keep := flag.Bool("keep", false, "keep the working directory")
	flag.Parse()

	if *list {
		for _, ex := range experiments.All() {
			fmt.Printf("%-8s %s\n", ex.ID, ex.Desc)
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "ndss-bench: -run <id|all> or -list required")
		os.Exit(2)
	}
	dir := *workDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ndss-bench-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndss-bench:", err)
			os.Exit(1)
		}
		if !*keep {
			defer os.RemoveAll(dir)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ndss-bench:", err)
		os.Exit(1)
	}

	env := experiments.NewEnv(dir, *scale, os.Stdout)
	defer env.Close()

	var toRun []experiments.Experiment
	if *run == "all" {
		toRun = experiments.All()
	} else {
		ex, ok := experiments.Find(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "ndss-bench: unknown experiment %q (use -list)\n", *run)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{ex}
	}
	for _, ex := range toRun {
		start := time.Now()
		fmt.Printf("=== %s: %s ===\n", ex.ID, ex.Desc)
		if err := ex.Run(env); err != nil {
			fmt.Fprintf(os.Stderr, "ndss-bench: %s failed: %v\n", ex.ID, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v ---\n\n", ex.ID, time.Since(start).Round(time.Millisecond))
	}
}
