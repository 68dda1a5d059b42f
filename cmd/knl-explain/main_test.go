package main

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
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

// The printed protocol walk accounts for every charge of the load: its
// legs add up to the measured latency at the printed 0.1 ns, for each
// line state, memory mode and memory kind, with the owner on the
// requester's core, on its tile's other core, and off-tile.
func TestWalkSumsToMeasured(t *testing.T) {
	for _, mode := range []string{"flat", "cache", "hybrid"} {
		for _, kind := range []string{"dram", "mcdram"} {
			if mode == "cache" && kind == "mcdram" {
				continue // no flat MCDRAM in cache mode
			}
			for _, state := range []string{"M", "E", "S", "F", "I"} {
				for _, owner := range []string{"0", "1", "20"} {
					if state == "I" && owner != "20" {
						continue // the owner is ignored for an uncached line
					}
					args := []string{"-from", "0", "-owner", owner, "-state", state,
						"-memmode", mode, "-kind", kind}
					measured, legs := explainSums(t, args)
					if measured != legs {
						t.Errorf("%q: measured %d.%d ns, printed legs sum to %d.%d ns",
							args, measured/10, measured%10, legs/10, legs%10)
					}
				}
			}
		}
	}
}

// explainSums runs knl-explain and returns the printed measured latency
// and the sum of the printed protocol-walk legs, both in tenths of a ns.
func explainSums(t *testing.T, args []string) (measured, legs int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%q: exit code = %d, stderr %q", args, code, stderr.String())
	}
	tenths := func(field string) int {
		whole, frac, ok := strings.Cut(field, ".")
		w, err1 := strconv.Atoi(whole)
		f, err2 := strconv.Atoi(frac)
		if !ok || err1 != nil || err2 != nil || len(frac) != 1 {
			t.Fatalf("%q: %q is not a 0.1 ns value", args, field)
		}
		return w*10 + f
	}
	inWalk, nLegs := false, 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "measured on the simulator:"):
			measured = tenths(f[len(f)-2])
		case strings.HasPrefix(line, "protocol walk"):
			inWalk = true
		case inWalk && line == "":
			inWalk = false
		case inWalk:
			legs += tenths(f[len(f)-2])
			nLegs++
		}
	}
	if measured == 0 || nLegs == 0 {
		t.Fatalf("%q: no measured latency or walk in %q", args, stdout.String())
	}
	return measured, legs
}

// Unrounded, the walk's legs equal the measured latency in every cluster
// and memory mode, from requesters spread over the mesh. Core 8 sits on
// the tile that holds the secondary S/F copy of a line primed at core 4.
func TestWalkExactAcrossModes(t *testing.T) {
	states := []cache.State{cache.Modified, cache.Exclusive, cache.Shared, cache.Forward, cache.Invalid}
	for _, cm := range knl.ClusterModes {
		for _, mm := range []knl.MemoryMode{knl.Flat, knl.CacheMode, knl.Hybrid} {
			cfg := knl.DefaultConfig().WithModes(cm, mm)
			for _, mk := range []knl.MemKind{knl.DDR, knl.MCDRAM} {
				if mk == knl.MCDRAM && mm == knl.CacheMode {
					continue
				}
				for _, st := range states {
					for _, from := range []int{0, 8, 37, 63} {
						for _, owner := range []int{0, 4, 20} {
							a, err := explain(cfg, mk, from, owner, st)
							if err != nil {
								t.Fatal(err)
							}
							var sum float64
							for _, l := range a.legs {
								sum += l.ns
							}
							if math.Abs(sum-a.latency) > 1e-9 {
								t.Errorf("%s %v from %d, %v at %d: measured %v ns, legs sum to %v ns",
									cfg.Name(), mk, from, st, owner, a.latency, sum)
							}
						}
					}
				}
			}
		}
	}
}
