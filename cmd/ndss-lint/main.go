// ndss-lint runs the repo's custom invariant analyzers (internal/
// analysis) over Go packages. It is the machine-checked form of
// docs/INVARIANTS.md: crash-safe filesystem discipline, context
// cancellation flow, Prometheus metric hygiene, CLI error discipline,
// and the serving tier's guarded-by locking.
//
// Standalone:
//
//	go run ./cmd/ndss-lint ./...
//	go run ./cmd/ndss-lint -analyzers fsiodiscipline,guardedby ./internal/index
//
// As a vet tool (per-package, driven and cached by the go command):
//
//	go build -o /tmp/ndss-lint ./cmd/ndss-lint
//	go vet -vettool=/tmp/ndss-lint ./...
//
// Exit status is non-zero when any diagnostic is reported. Suppress a
// diagnostic with a justified directive on or above the offending
// line:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ndss/internal/analysis"
)

func main() {
	// The go command probes vet tools with -V=full for cache keying and
	// -flags for the tool's analyzer flag set (we expose none).
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Printf("ndss-lint version v1\n")
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// A single *.cfg argument (possibly after flags) means the go
	// command is driving us as a unitchecker.
	if cfg := cfgArg(os.Args[1:]); cfg != "" {
		unitcheckerMain(cfg)
		return
	}

	var (
		sel  = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list = flag.Bool("list", false, "list analyzers and exit")
		supp = flag.Bool("suppressions", false, "report every lint:ignore directive (file:line, analyzers, reason) and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ndss-lint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *sel != "" {
		var bad string
		analyzers, bad = analysis.ByName(strings.Split(*sel, ","))
		if analyzers == nil {
			fmt.Fprintf(os.Stderr, "ndss-lint: unknown analyzer %q (try -list)\n", bad)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	pkgs, err := analysis.LoadPackages("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndss-lint: %v\n", err)
		os.Exit(2)
	}
	badTypes := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "ndss-lint: %s: %v\n", p.ImportPath, terr)
			badTypes = true
		}
	}
	if badTypes {
		os.Exit(2)
	}
	if *supp {
		reportSuppressions(pkgs)
		return
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndss-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ndss-lint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

// reportSuppressions prints the suppression-debt report: every
// lint:ignore directive with its location, analyzers, and reason, so
// the accumulated exceptions stay reviewable (CI logs the report on
// every run). Informational: always exits 0, even for an empty tree.
func reportSuppressions(pkgs []*analysis.Package) {
	supps := analysis.Suppressions(pkgs)
	for _, s := range supps {
		reason := s.Reason
		if reason == "" {
			reason = "(MISSING REASON — itself a lint violation)"
		}
		fmt.Printf("%s:%d: %s — %s\n", s.File, s.Line, strings.Join(s.Analyzers, ","), reason)
	}
	fmt.Fprintf(os.Stderr, "ndss-lint: %d suppression(s)\n", len(supps))
}

func cfgArg(args []string) string {
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") {
			return a
		}
	}
	return ""
}
