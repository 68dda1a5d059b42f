package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad flags are rejected before anything is measured: exit 2, a message
// naming the problem, and nothing on stdout.
// -h and -cluster nope used to exit through the flag package.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"fit", "-cluster", "nope"}, `unknown cluster mode "nope"`},
		{[]string{"fit", "extra"}, `unexpected arguments ["extra"]`},
		{[]string{"show", "paper", "extra"}, "usage:"},
		{[]string{"compare", "paper"}, "usage:"},
		{[]string{"nosuch"}, "usage:"},
		{nil, "usage:"},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
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
	if !strings.Contains(stderr.String(), "knl-model show") {
		t.Errorf("-h usage lacks %s: %q", "knl-model show", stderr.String())
	}
}
