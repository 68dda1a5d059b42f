package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"knlcap/internal/analysis"
)

// The -analyzers flag is checked before any package loading, so these
// tests run without touching the module on disk.

// TestUnknownAnalyzerExits2 pins the regression: a typoed analyzer name
// must be a usage error (exit 2) that names the valid choices — not a
// silent run of nothing that exits 0 and reads as a clean lint.
func TestUnknownAnalyzerExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "determinsm"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"determinsm"`) {
		t.Errorf("stderr does not name the offending analyzer: %s", msg)
	}
	for _, name := range []string{"determinism", "statecov", "hotalloc"} {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr does not list valid analyzer %q: %s", name, msg)
		}
	}
}

// TestEmptySelectionExits2: a list that trims away to nothing (e.g. ",")
// must not silently run zero analyzers.
func TestEmptySelectionExits2(t *testing.T) {
	for _, arg := range []string{",", " , ", ",,"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-analyzers", arg}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-analyzers %q: exit code = %d, want 2", arg, code)
		}
		if !strings.Contains(stderr.String(), "selects no analyzers") {
			t.Errorf("-analyzers %q: stderr lacks explanation: %s", arg, stderr.String())
		}
	}
}

// TestListExits0 keeps -list a query, not a lint run.
func TestListExits0(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "statecov", "hotalloc", "memokey", "purity"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output lacks analyzer %q", name)
		}
	}
}

// TestListSortedWithDocs pins the -list format: one line per analyzer in
// the full suite, sorted by name, each carrying the analyzer's one-line
// doc — stable however the suite itself is ordered.
func TestListSortedWithDocs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	want := analysis.AnalyzerNames()
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want one per analyzer (%d)", len(lines), len(want))
	}
	docs := map[string]string{}
	for _, a := range analysis.All() {
		docs[a.Name] = a.Doc
	}
	var names []string
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("-list line lacks a doc: %q", line)
		}
		name := fields[0]
		names = append(names, name)
		if doc := docs[name]; doc == "" || !strings.Contains(line, doc) {
			t.Errorf("-list line for %s does not carry its doc %q: %q", name, doc, line)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list names are not sorted: %v", names)
	}
}

// TestUnknownAnalyzerReusesList: the exit-2 message repeats the full
// -list listing (names and docs), so the fix is on screen.
func TestUnknownAnalyzerReusesList(t *testing.T) {
	var listOut, stdout, stderr bytes.Buffer
	run([]string{"-list"}, &listOut, &stderr)
	stderr.Reset()
	if code := run([]string{"-analyzers", "memokeys"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), listOut.String()) {
		t.Errorf("unknown-analyzer stderr does not repeat the -list listing:\n%s", stderr.String())
	}
}

// TestTimingLine: -timing emits a single stderr line with one name=dur
// entry per selected analyzer plus the shared call-graph build, without
// touching the findings output or the exit code.
func TestTimingLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "-timing", "-analyzers", "errcheck,purity", "internal/units"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	var timingLines []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "lint-timing: ") {
			timingLines = append(timingLines, line)
		}
	}
	if len(timingLines) != 1 {
		t.Fatalf("got %d lint-timing lines, want 1; stderr: %s", len(timingLines), stderr.String())
	}
	for _, name := range []string{"callgraph=", "errcheck=", "purity="} {
		if !strings.Contains(timingLines[0], name) {
			t.Errorf("timing line lacks %q: %s", name, timingLines[0])
		}
	}
}

// -h is a request, not an error; it used to exit 2.
func TestHelpExits0(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit code = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "usage: knl-lint") {
		t.Errorf("-h usage lacks the synopsis: %q", stderr.String())
	}
}
