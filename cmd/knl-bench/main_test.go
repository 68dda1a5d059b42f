package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad flags are rejected before anything is measured: exit 2, a message
// naming the problem, and nothing on stdout.
// -converge -3, -iterations -5 and -parallel -2 used to run and exit 0.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-converge", "-3"}, "-converge must not be negative (got -3)"},
		{[]string{"-iterations", "-5"}, "-iterations must not be negative (got -5)"},
		{[]string{"-parallel", "-2"}, "-parallel must be at least 1 (got -2)"},
		{[]string{"-table", "3"}, "-table must be 1 or 2"},
		{[]string{"-table", "2", "-memmode", "nope"}, `unknown memory mode "nope"`},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{[]string{"-quick", "extra"}, `unexpected arguments ["extra"]`},
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
	if !strings.Contains(stderr.String(), "-table") {
		t.Errorf("-h usage lacks %s: %q", "-table", stderr.String())
	}
}
