package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// runReport is the last line a run prints.
type runReport struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runSelf runs this binary once more, as the driver would, and parses
// the report it prints last.
func runSelf(workload string, seed int, seconds float64, trace int) (runReport, error) {
	var rep runReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, fmt.Errorf("%s seed %d: last line is not a report: %w", workload, seed, err)
	}
	if !rep.Correct {
		return rep, fmt.Errorf("%s seed %d: run not correct:\n%s", workload, seed, out)
	}
	return rep, nil
}

// selfRuns is how many runs make a set: as many as the acceptance check
// makes.
const selfRuns = 10

// A bound is at least its metric's floor and at most maxBound, the most
// BENCHMARK.json may hold.
const (
	timedFloor = 0.03
	exactFloor = 0.01 // index_bytes_per_token: exact for one seed, varies by thousandths between seeds
	maxBound   = 0.25
	tightBound = 0.10 // a looser bound is reported as such
)

// exactCounts are the per-layer metrics that must repeat exactly for one
// seed on query-hit and query-miss.
var exactCounts = []string{
	"window.windows_per_token", "index.bytes_per_posting", "index.postings_per_token",
	"index.read_bytes_per_query", "search.short_lists", "search.long_lists", "search.candidates",
	"search.probed", "search.rects", "search.matches", "search.candidate_yield", "bench.samples",
}

// selfCheck measures the benchmark's own noise the way the acceptance
// check does: two sets of selfRuns runs of every workload on the current
// tree, each run with another seed, the two sets with the same seeds. For
// every workload and end-to-end metric it prints both medians, the
// quartile spread of each set as a share of its median, how far two runs
// of one seed lie apart (the machine's share of the spread; the rest is
// the seeds'), and the bound that follows:
//
//	max(floor, 2.5 x |median A - median B| / median A, 3 x spread)
//
// rounded up to a whole percent and capped at maxBound. The 3 keeps a
// spread below a third of its bound, which is what makes it safe to
// assume that ten more runs will not show a spread above the bound: the
// quartile distance of ten values is itself uncertain by a third.
// BENCHMARK.json has room for one bound per metric, so it gets the
// largest over the workloads. The check fails if a spread or a worsening
// of the median is beyond maxBound, which no bound could cover; if it
// passes, the bounds are written into the BENCHMARK.json at path.
func selfCheck(w io.Writer, seconds float64, path string) error {
	type cell struct{ a, b []float64 }
	table := make(map[string]map[string]*cell) // workload -> metric -> values
	for _, wl := range workloadNames {
		table[wl] = make(map[string]*cell)
		for _, d := range endToEnd {
			table[wl][d.name] = &cell{}
		}
	}
	for set := 0; set < 2; set++ {
		for _, wl := range workloadNames {
			for seed := 1; seed <= selfRuns; seed++ {
				rep, err := runSelf(wl, seed, seconds, 0)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "set %c %s seed %d:", 'A'+set, wl, seed)
				for _, d := range endToEnd {
					fmt.Fprintf(w, " %s %.5g", d.name, rep.Metrics[d.name].Value)
				}
				fmt.Fprintln(w)
				for _, d := range endToEnd {
					c := table[wl][d.name]
					if set == 0 {
						c.a = append(c.a, rep.Metrics[d.name].Value)
					} else {
						c.b = append(c.b, rep.Metrics[d.name].Value)
					}
				}
			}
		}
	}

	var problems, notes []string
	bounds := make(map[string]float64)
	fmt.Fprintf(w, "\n| workload | metric | median A | median B | shift | spread A | spread B | same seed | bound |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			c := table[wl][d.name]
			medA, medB := median(c.a), median(c.b)
			shift := math.Abs(medB-medA) / medA
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			sa, sb := spread(c.a), spread(c.b)
			apart := make([]float64, len(c.a))
			for i := range c.a {
				apart[i] = math.Abs(c.b[i]-c.a[i]) / c.a[i]
			}
			floor := timedFloor
			if d.name == "index_bytes_per_token" {
				floor = exactFloor
				if percentile(apart, 100) != 0 {
					problems = append(problems, fmt.Sprintf("%s: index_bytes_per_token differs between two runs of one seed", wl))
				}
			}
			want := math.Ceil(100*math.Max(floor, math.Max(2.5*shift, 3*math.Max(sa, sb)))) / 100
			bound := math.Min(want, maxBound)
			bounds[d.name] = math.Max(bounds[d.name], bound)
			// What the acceptance check refuses outright: a spread or a
			// worsening beyond the largest bound there is. (It exempts
			// setup_s from the spread rule, not from the other.)
			worse := (medB - medA) / medA
			if d.better == "higher" {
				worse = -worse
			}
			if worse > maxBound || (d.name != "setup_s" && math.Max(sa, sb) > maxBound) {
				problems = append(problems, fmt.Sprintf("%s %s: spread %.0f%%/%.0f%%, set B worse by %.0f%%: beyond the %.0f%% a bound may be",
					wl, d.name, 100*sa, 100*sb, 100*worse, 100*maxBound))
			} else if 3*math.Max(sa, sb) > maxBound && d.name != "setup_s" {
				notes = append(notes, fmt.Sprintf("%s %s: spread %.1f%% is more than a third of the largest bound", wl, d.name, 100*math.Max(sa, sb)))
			}
			fmt.Fprintf(w, "| %s | %s | %.5g | %.5g | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.0f%% |\n",
				wl, d.name, medA, medB, 100*shift, 100*sa, 100*sb, 100*median(apart), 100*bound)
		}
	}
	fmt.Fprintf(w, "\nbounds (the largest over the workloads, at most %.0f%%):\n", 100*maxBound)
	for _, d := range endToEnd {
		note := ""
		if bounds[d.name] > tightBound {
			note = fmt.Sprintf(" (loose: sees only a worsening beyond %.0f%%)", 100*bounds[d.name])
		}
		fmt.Fprintf(w, "  %-24s %.2f%s\n", d.name, bounds[d.name], note)
	}
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}

	// The counts of the traced run must repeat exactly for one seed.
	for _, wl := range []string{wlQueryHit, wlQueryMiss} {
		first, err := runSelf(wl, 1, seconds, 1)
		if err != nil {
			return err
		}
		second, err := runSelf(wl, 1, seconds, 1)
		if err != nil {
			return err
		}
		for _, name := range exactCounts {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				problems = append(problems, fmt.Sprintf("%s: %s differs between two traced runs of seed 1: %v vs %v", wl, name, a, b))
			}
		}
		fmt.Fprintf(w, "%s: %d counts of the traced run compared over two runs of seed 1\n", wl, len(exactCounts))
	}

	if len(problems) > 0 {
		return fmt.Errorf("selfcheck failed, %s left as it is:\n  %s", path, strings.Join(problems, "\n  "))
	}
	if err := writeBounds(path, bounds); err != nil {
		return err
	}
	fmt.Fprintf(w, "bounds written to %s\n", path)
	return nil
}

// writeBounds replaces the bound of every end-to-end metric in the
// BENCHMARK.json at path and leaves the rest of the file as it is.
func writeBounds(path string, bounds map[string]float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for name, b := range bounds {
		re := regexp.MustCompile(`("name":\s*"` + regexp.QuoteMeta(name) + `"[^}]*"bound":\s*)[0-9.eE+-]+`)
		if !re.Match(data) {
			return fmt.Errorf("%s: no end_to_end metric %s with a bound", path, name)
		}
		data = re.ReplaceAll(data, []byte("${1}"+strconv.FormatFloat(b, 'f', 2, 64)))
	}
	return os.WriteFile(path, data, 0o644)
}
