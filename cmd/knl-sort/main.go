// Command knl-sort regenerates Figure 10: the parallel bitonic merge sort
// versus the capability model's predictions (memory model in latency and
// bandwidth variants, full model with the fitted overhead), across thread
// counts for three input sizes, on DRAM and MCDRAM.
//
// Sizes are scaled from the paper's 1 KB / 4 MB / 1 GB to keep the
// simulation interactive (see EXPERIMENTS.md); pass -lines to override.
//
// Usage:
//
//	knl-sort                    # all three panels, DRAM and MCDRAM
//	knl-sort -kind mcdram -lines 65536
//	knl-sort -verify            # also run and check the real Go sort
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"knlcap/internal/cli"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/msort"
	"knlcap/internal/report"
	"knlcap/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind an argument list and two writers; it
// returns the exit code (see internal/cli): 1 if -verify finds the real
// sort broken.
func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-sort", stderr, cli.CSV|cli.Parallel|cli.Cache)
	kindFlag := c.String("kind", "both", "buffer placement: dram | mcdram | both")
	lines := c.Int("lines", 0, "input size in cache lines (0 = the three standard panels)")
	verify := c.Bool("verify", false, "run the real Go parallel sort and verify correctness")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	defer c.Close()
	kinds := []knl.MemKind{knl.DDR, knl.MCDRAM}
	switch *kindFlag {
	case "both":
	case "dram":
		kinds = kinds[:1]
	case "mcdram":
		kinds = kinds[1:]
	default:
		return c.Usagef("-kind must be dram, mcdram or both, not %q", *kindFlag)
	}
	if *lines < 0 {
		return c.Usagef("-lines must be positive, or 0 for the three standard panels (got %d)", *lines)
	}

	if *verify && !verifyRealSort(stdout, stderr) {
		return c.Fail(errors.New("REAL SORT IS BROKEN"))
	}
	mc := c.Memo()

	cfg := knl.DefaultConfig() // SNC4-flat
	model := core.Default()
	cli.Fprintln(stderr, "fitting overhead model from 1 KB sorts...")
	oh := msort.FitOverheadMemo(cfg, model, knl.DDR, nil, c.Parallel, mc)
	cli.Fprintf(stdout, "overhead model: %.0f + %.0f*threads [ns]\n\n", oh.Alpha, oh.Beta)

	panels := []struct {
		label string
		lines int
	}{
		{"1 KB", 16},
		{"256 KB (paper: 4 MB)", 4096},
		{"16 MB (paper: 1 GB)", 262144},
	}
	if *lines > 0 {
		panels = panels[:1]
		panels[0] = struct {
			label string
			lines int
		}{fmt.Sprintf("%d lines", *lines), *lines}
	}
	threadCounts := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

	for _, kind := range kinds {
		for _, panel := range panels {
			cli.Fprintf(stderr, "panel %s on %v...\n", panel.label, kind)
			pts := msort.Figure10Memo(cfg, model, oh, panel.lines, kind, threadCounts, c.Parallel, mc)
			t := &report.Table{
				Title: fmt.Sprintf("Figure 10: sorting %s of integers (%v, SNC4-flat, compact) [ns]",
					panel.label, kind),
				Headers: []string{"Threads", "Measured", "Mem lat", "Mem BW",
					"Full lat", "Full BW", ">10% overhead"},
			}
			for _, p := range pts {
				t.AddRow(p.Threads, p.MeasuredNs, p.MemLatNs, p.MemBWNs,
					p.FullLatNs, p.FullBWNs, p.OverCutoff)
			}
			if c.CSV {
				t.CSV(stdout)
			} else {
				t.Write(stdout)
				cli.Fprintln(stdout)
			}
		}
	}
	if len(kinds) == 2 && *lines == 0 {
		compareKinds(stdout, cfg)
	}
	return 0
}

func compareKinds(stdout io.Writer, cfg knl.Config) {
	const lines = 262144
	d := msort.Simulate(cfg, msort.DefaultSimParams(lines, 64, knl.DDR))
	mc := msort.Simulate(cfg, msort.DefaultSimParams(lines, 64, knl.MCDRAM))
	cli.Fprintf(stdout, "MCDRAM vs DRAM at 64 threads, 16 MB: %.2fx (paper: negligible difference)\n", d.Float()/mc.Float())
}

// verifyRealSort sorts 4 MB with the real parallel sort and checks it
// against the standard library; it reports whether the output matched.
func verifyRealSort(stdout, stderr io.Writer) bool {
	cli.Fprintln(stderr, "verifying the real parallel sort implementation...")
	rng := stats.NewRNG(20260705)
	v := make([]int32, 1<<20)
	for i := range v {
		v[i] = int32(rng.Uint64())
	}
	want := append([]int32(nil), v...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	used := msort.ParallelSort(v, 8)
	for i := range v {
		if v[i] != want[i] {
			return false
		}
	}
	cli.Fprintf(stdout, "real sort verified: 4 MB of int32 sorted correctly with %d threads\n", used)
	return true
}
