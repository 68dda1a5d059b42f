package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"knlcap/internal/bench"
	"knlcap/internal/knl"
)

const all = Quick | CSV | Iterations | Parallel | Cache | Converge | Profile | Cluster | MemMode

// -h is a request, not an error, and lists every shared flag.
func TestHelpExits0(t *testing.T) {
	var stderr bytes.Buffer
	code, ok := New("t", &stderr, all).Parse([]string{"-h"})
	if ok || code != 0 {
		t.Errorf("-h: code, ok = %d, %v; want 0, false", code, ok)
	}
	for _, name := range []string{"-quick", "-csv", "-iterations", "-parallel", "-cache", "-cache-dir",
		"-converge", "-nojitter", "-cpuprofile", "-memprofile", "-cluster", "-memmode"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("-h usage lacks %s: %q", name, stderr.String())
		}
	}
}

// Every bad shared value is a usage error, caught before the command runs.
func TestBadFlagsExit2(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{[]string{"-quick", "extra"}, `t: unexpected arguments ["extra"]`},
		{[]string{"-parallel", "0"}, "t: -parallel must be at least 1 (got 0)"},
		{[]string{"-parallel", "-2"}, "-parallel must be at least 1 (got -2)"},
		{[]string{"-converge", "-3"}, "-converge must not be negative (got -3)"},
		{[]string{"-iterations", "-5"}, "-iterations must not be negative (got -5)"},
		{[]string{"-iterations", "x"}, `invalid value "x" for flag -iterations`},
		{[]string{"-cluster", "nope"}, `unknown cluster mode "nope"`},
		{[]string{"-memmode", "nope"}, `unknown memory mode "nope"`},
		{[]string{"-cache", "-cache-dir", filepath.Join(file, "sub")}, "t: memo:"},
		{[]string{"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "x")}, "t: cpu profile:"},
	} {
		var stderr bytes.Buffer
		code, ok := New("t", &stderr, all).Parse(tc.args)
		if ok || code != 2 {
			t.Errorf("%q: code, ok = %d, %v; want 2, false", tc.args, code, ok)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
	}
}

func TestParseOperands(t *testing.T) {
	var stderr bytes.Buffer
	c := New("t", &stderr, Quick)
	if code, ok := c.ParseOperands([]string{"-quick", "a", "b"}); !ok {
		t.Fatalf("code = %d, stderr %q", code, stderr.String())
	}
	if got := c.Args(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("operands = %q", got)
	}
}

// Unbound flags leave bench.DefaultOptions and the default configuration
// alone; bound ones set their fields.
func TestOptions(t *testing.T) {
	var stderr bytes.Buffer
	c := New("t", &stderr, 0)
	if _, ok := c.Parse(nil); !ok {
		t.Fatal(stderr.String())
	}
	c.Close() // nothing to stop
	if got, want := c.Options(), bench.DefaultOptions(); !reflect.DeepEqual(got, want) {
		t.Errorf("unbound Options = %+v, want %+v", got, want)
	}
	if got, want := c.Config(), knl.DefaultConfig(); got != want {
		t.Errorf("unbound Config = %+v, want %+v", got, want)
	}

	c = New("t", &stderr, all)
	args := []string{"-quick", "-iterations", "7", "-parallel", "3", "-converge", "2", "-nojitter",
		"-cluster", "a2a", "-memmode", "cache"}
	if _, ok := c.Parse(args); !ok {
		t.Fatal(stderr.String())
	}
	want := bench.DefaultOptions().Quick()
	want.Iterations, want.Parallel, want.ConvergeAfter, want.NoJitter = 7, 3, 2, true
	if got := c.Options(); !reflect.DeepEqual(got, want) {
		t.Errorf("Options = %+v, want %+v", got, want)
	}
	if got := c.Config(); got != knl.DefaultConfig().WithModes(knl.A2A, knl.CacheMode) {
		t.Errorf("Config = %v", got.Name())
	}
}

// -cache opens the memo cache for Options and Close reports its traffic.
func TestCacheReport(t *testing.T) {
	var stderr bytes.Buffer
	c := New("t", &stderr, Cache)
	if _, ok := c.Parse([]string{"-cache", "-cache-dir", t.TempDir()}); !ok {
		t.Fatal(stderr.String())
	}
	if c.Options().Memo == nil || c.Memo() == nil {
		t.Fatal("-cache opened no memo cache")
	}
	c.Close()
	if !strings.HasPrefix(stderr.String(), "memo: hits=0 ") {
		t.Errorf("Close printed %q, want the memo summary", stderr.String())
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stderr bytes.Buffer
	c := New("t", &stderr, Profile)
	if _, ok := c.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); !ok {
		t.Fatal(stderr.String())
	}
	// Burn a little CPU so the profile has something to say.
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i % 7
	}
	_ = sink
	c.Close()
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestUsagefAndFail(t *testing.T) {
	var stderr bytes.Buffer
	c := New("t", &stderr, 0)
	if code := c.Usagef("bad %d", 1); code != 2 {
		t.Errorf("Usagef returned %d", code)
	}
	if code := c.Fail(os.ErrNotExist); code != 1 {
		t.Errorf("Fail returned %d", code)
	}
	if got, want := stderr.String(), "t: bad 1\nt: file does not exist\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
}
