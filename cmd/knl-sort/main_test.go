package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// Bad flags are rejected before any simulation starts: exit 2, a message
// naming the problem, and nothing on stdout. A typoed -kind used to run
// both memories, and a negative -lines the three default panels.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "foo"}, `-kind must be dram, mcdram or both, not "foo"`},
		{[]string{"-kind", "DRAM"}, `not "DRAM"`},
		{[]string{"-kind", ""}, `not ""`},
		{[]string{"-lines", "-5"}, "-lines must be positive, or 0 for the three standard panels (got -5)"},
		{[]string{"-lines", "x"}, `invalid value "x" for flag -lines`},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{[]string{"-kind", "dram", "extra"}, `unexpected arguments ["extra"]`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%q: exit code = %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout: %q", tc.args, stdout.String())
		}
	}
}

// -h is a request, not an error.
func TestHelpExits0(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit code = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-kind") {
		t.Errorf("-h usage lacks -kind: %q", stderr.String())
	}
}

// The table prints compact numbers, as the committed results/fig10_*.txt
// do: a units.Nanos cell handed to report.Table.AddRow as is falls
// through to %v and prints at full precision, in exponent form from 1e6
// up (1.0685290013925526e+06 where the table wants 1068529).
func TestTableHasNoExponentForm(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kind", "dram", "-lines", "4096"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Threads") {
		t.Fatalf("no table on stdout: %q", stdout.String())
	}
	if m := regexp.MustCompile(`[0-9]e[+-][0-9]+`).FindString(stdout.String()); m != "" {
		t.Errorf("table prints an exponent-form number (%s):\n%s", m, stdout.String())
	}
}
