package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad flags are rejected before anything is measured: exit 2, a message
// naming the problem, and nothing on stdout.
// A malformed -array used to exit 1, a zero or negative -budget silently
// became 16 GB, and stray arguments were ignored.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-array", "grid:8g:streaming"}, `bad array spec "grid:8g:streaming"`},
		{[]string{"-array", "grid:8g:bogus:4"}, `unknown pattern "bogus"`},
		{[]string{"-array", "grid:8g:streaming:0"}, `array "grid" has invalid parameters`},
		{[]string{"-budget", "0"}, `-budget must be positive (got "0")`},
		{[]string{"-budget", "-1g"}, `-budget must be positive (got "-1g")`},
		{[]string{"-budget", "x"}, `bad byte size "x"`},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{[]string{"extra"}, `unexpected arguments ["extra"]`},
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
	if !strings.Contains(stderr.String(), "-budget") {
		t.Errorf("-h usage lacks %s: %q", "-budget", stderr.String())
	}
}
