// Command benchmark is the repository's benchmark: it builds its inputs
// from a seed, drives the system through its public functions only,
// checks the answers, and prints every metric by name with its unit.
// See README.md in this directory.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workdir is where a run builds its indexes and where the traced run
// leaves spans.json, relative to the directory the benchmark is run from.
// It is made if missing.
const workdir = ".bench_build/work"

func main() {
	var (
		workload  = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 16, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload repeatedly, print the spreads, derive the bounds and write them into ./BENCHMARK.json")
	)
	flag.Parse()
	if *selfcheck {
		if err := selfCheck(os.Stdout, *seconds, "BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	ok, err := run(*workload, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

// run makes one run and prints its report. It reports whether the run
// was valid and every op correct.
func run(workload string, seed int64, seconds float64, traced bool) (bool, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == workload
	}
	if !known {
		return false, fmt.Errorf("-workload must be one of %s", strings.Join(workloadNames, ", "))
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("workload %s seed %d seconds %g trace %t\n", workload, seed, seconds, traced)
	printFingerprint()
	var res *result
	defs := endToEnd
	if traced {
		defs = perLayer
		res, err = runTraced(workload, fullScale, seed, dir, filepath.Join(workdir, "spans.json"))
	} else {
		res, err = runUntraced(workload, fullScale, seed, seconds, dir)
	}
	if err != nil {
		return false, err
	}
	if err := res.report(os.Stdout, defs); err != nil {
		return false, err
	}
	return res.correct(), nil
}

// printFingerprint records the machine and the tree the numbers belong
// to.
func printFingerprint() {
	fmt.Printf("nproc %d gomaxprocs %d go %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("cpu %s\n", cpuModel())
	fmt.Printf("git %s\n", gitSHA())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitSHA reads the commit of the working directory's own .git, if it
// has one; it does not look in parent directories, and a checkout that
// is not a repository reports "unknown".
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
