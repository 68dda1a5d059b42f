// Command knl-lint runs the repository's static-analysis suite (package
// internal/analysis) over module packages and exits non-zero on findings.
//
// Usage:
//
//	knl-lint [-C dir] [-tests] [-json] [-timing] [-analyzers list] [patterns...]
//	knl-lint -list
//
// Patterns are module-relative directories; "dir/..." recurses and
// "./..." (the default) covers the whole module. Findings print one per
// line as "file:line:col: analyzer: message"; with -json they print as a
// JSON array of {file,line,col,analyzer,message} objects in the same
// stable order. -timing reports per-analyzer wall time on stderr as a
// single "lint-timing:" line (plus the shared call-graph build under the
// pseudo-entry "callgraph"), so CI logs carry the lint-stage cost.
//
// Exit codes: 0 no findings, 1 findings reported, 2 usage or load error.
// An -analyzers list that names an unknown analyzer, or that selects
// nothing at all, is a usage error: a lint run that silently checks
// nothing must not look like a clean bill of health. Both usage errors
// repeat the -list listing so the fix is on screen.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"knlcap/internal/analysis"
	"knlcap/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// printAnalyzerList writes one "name  doc" line per analyzer, sorted by
// name so the listing is stable however All() orders the suite. -list
// prints it to stdout; the -analyzers usage errors reuse it on stderr.
func printAnalyzerList(w io.Writer) {
	analyzers := append([]*analysis.Analyzer(nil), analysis.All()...)
	sort.Slice(analyzers, func(i, j int) bool { return analyzers[i].Name < analyzers[j].Name })
	for _, a := range analyzers {
		cli.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-lint", stderr, 0)
	dir := c.String("C", ".", "module root directory")
	tests := c.Bool("tests", false, "also analyze in-package _test.go files")
	names := c.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	jsonOut := c.Bool("json", false, "emit findings as a JSON array")
	timing := c.Bool("timing", false, "report per-analyzer wall time on stderr")
	list := c.Bool("list", false, "list analyzers and exit")
	c.Usage = func() {
		cli.Fprintln(stderr, "usage: knl-lint [-C dir] [-tests] [-json] [-timing] [-analyzers list] [patterns...]")
		c.PrintDefaults()
	}
	if code, ok := c.ParseOperands(args); !ok {
		return code
	}

	analyzers := analysis.All()
	if *list {
		printAnalyzerList(stdout)
		return 0
	}
	if *names != "" {
		var selected []string
		for _, n := range strings.Split(*names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				selected = append(selected, n)
			}
		}
		if len(selected) == 0 {
			cli.Fprintf(stderr, "knl-lint: -analyzers %q selects no analyzers; the analyzers are:\n", *names)
			printAnalyzerList(stderr)
			return 2
		}
		var err error
		if analyzers, err = analysis.ByName(selected); err != nil {
			cli.Fprintf(stderr, "knl-lint: %v; the analyzers are:\n", err)
			printAnalyzerList(stderr)
			return 2
		}
	}

	patterns := c.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		return c.Usagef("%v", err)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return c.Usagef("%v", err)
	}
	if len(pkgs) == 0 {
		return c.Usagef("no packages matched %s", strings.Join(patterns, " "))
	}

	findings, timings := analysis.RunTimed(analysis.DefaultConfig(), pkgs, analyzers)
	if *timing {
		parts := make([]string, 0, len(timings))
		for _, tm := range timings {
			parts = append(parts, fmt.Sprintf("%s=%s", tm.Name, tm.Elapsed.Round(time.Millisecond/10)))
		}
		cli.Fprintf(stderr, "lint-timing: %s\n", strings.Join(parts, " "))
	}
	if *jsonOut {
		if err := analysis.WriteJSON(stdout, findings); err != nil {
			return c.Usagef("%v", err)
		}
	} else {
		for _, f := range findings {
			cli.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		cli.Fprintf(stderr, "knl-lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
