package main

import (
	"bytes"
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
