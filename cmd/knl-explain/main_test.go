package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad flags are rejected before any machine is built: exit 2, a message
// naming the problem, and nothing on stdout. An out-of-range -from or
// -owner used to panic inside the simulator, and -kind foo silently ran on
// DRAM.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-from", "999"}, "-from must be a core in 0..63 (got 999)"},
		{[]string{"-from", "-1"}, "-from must be a core in 0..63 (got -1)"},
		{[]string{"-owner", "999"}, "-owner must be a core in 0..63 (got 999)"},
		{[]string{"-owner", "-2", "-state", "E"}, "-owner must be a core in 0..63 (got -2)"},
		{[]string{"-kind", "foo"}, `-kind must be dram or mcdram (got "foo")`},
		{[]string{"-state", "X"}, "-state must be M, E, S, F or I"},
		{[]string{"-cluster", "nope"}, "nope"},
		{[]string{"-memmode", "nope"}, "nope"},
		{[]string{"-memmode", "cache", "-state", "I", "-kind", "mcdram"}, "no flat MCDRAM in cache mode"},
		{[]string{"-from", "x"}, `invalid value "x" for flag -from`},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{[]string{"-state", "E", "extra"}, `unexpected arguments ["extra"]`},
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
	if !strings.Contains(stderr.String(), "-owner") {
		t.Errorf("-h usage lacks -owner: %q", stderr.String())
	}
}

// -owner is ignored for an uncached line, so any value passes there.
func TestOwnerIgnoredForStateI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-state", "I", "-owner", "999"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "cached nowhere") {
		t.Errorf("unexpected output: %q", stdout.String())
	}
}
