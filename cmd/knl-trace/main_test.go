package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Bad flags are rejected before any machine is built: exit 2, a message
// naming the problem, and nothing on stdout. -threads -3 used to run zero
// operations and exit 0, and stray arguments were silently ignored.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-threads", "0"}, "-threads must be at least 1 (got 0)"},
		{[]string{"-threads", "-3"}, "-threads must be at least 1 (got -3)"},
		{[]string{"-workload", "foo"}, `unknown workload "foo"`},
		{[]string{"-cluster", "nope"}, "nope"},
		{[]string{"-threads", "x"}, `invalid value "x" for flag -threads`},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{[]string{"-workload", "pingpong", "extra"}, `unexpected arguments ["extra"]`},
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
	if !strings.Contains(stderr.String(), "-workload") {
		t.Errorf("-h usage lacks -workload: %q", stderr.String())
	}
}

// A good run traces operations and exits 0.
func TestPingPongRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "pingpong"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `workload "pingpong" on SNC4-flat`) {
		t.Errorf("unexpected output: %q", stdout.String())
	}
}

// -csv writes one row per traced operation under a start_ns header, and
// the row count matches the "N traced operations" line on stdout.
func TestWriteCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "mixed", "-csv", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	var name string
	var ops int
	if _, err := fmt.Sscanf(stdout.String(), "workload %q on SNC4-flat: %d traced operations", &name, &ops); err != nil {
		t.Fatalf("no operation count in %q: %v", stdout.String(), err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !strings.HasPrefix(lines[0], "start_ns,") {
		t.Errorf("bad header %q", lines[0])
	}
	if rows := len(lines) - 1; ops == 0 || rows != ops {
		t.Errorf("csv has %d rows, stdout reports %d traced operations", rows, ops)
	}
}
