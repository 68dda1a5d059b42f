package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad flags are rejected before anything is measured: exit 2, a message
// naming the problem, and nothing on stdout.
// Stray arguments used to be ignored.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sched", "bogus"}, `unknown schedule "bogus"`},
		{[]string{"-fig", "9"}, "-fig must be 6, 7 or 8"},
		{[]string{"-op", "nope"}, "unknown -op nope"},
		{[]string{"-nojitter"}, "flag provided but not defined: -nojitter"},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{[]string{"-fig", "6", "extra"}, `unexpected arguments ["extra"]`},
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
	if !strings.Contains(stderr.String(), "-speedups") {
		t.Errorf("-h usage lacks %s: %q", "-speedups", stderr.String())
	}
}
