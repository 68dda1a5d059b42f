package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad flags are rejected before any model is built: exit 2, a message
// naming the problem, and nothing on stdout. -n 0 used to panic inside the
// tree search, and -threads 0 to print a barrier table with fan-out -1.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "-n must be at least 1 (got 0)"},
		{[]string{"-n", "-3"}, "-n must be at least 1 (got -3)"},
		{[]string{"-threads", "0"}, "-threads must be at least 1 (got 0)"},
		{[]string{"-threads", "-5"}, "-threads must be at least 1 (got -5)"},
		{[]string{"-n", "x"}, `invalid value "x" for flag -n`},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{[]string{"-n", "16", "extra"}, `unexpected arguments ["extra"]`},
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
	if !strings.Contains(stderr.String(), "-threads") {
		t.Errorf("-h usage lacks -threads: %q", stderr.String())
	}
}
