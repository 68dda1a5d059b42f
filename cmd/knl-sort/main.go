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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/memo"
	"knlcap/internal/msort"
	"knlcap/internal/report"
	"knlcap/internal/stats"
)

// memoReport prints the cache traffic counters to stderr.
func memoReport(c *memo.Cache, stderr io.Writer) {
	if c != nil {
		fprintln(stderr, "memo:", c.Stats())
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fprintf and fprintln write the command's output, deliberately dropping
// write errors: a run whose own output pipe fails has nothing useful left
// to report.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func fprintln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// run is the whole command behind an argument list and two writers, so
// flag validation can be tested in process. It returns the exit code: 0
// on success, 1 if -verify finds the real sort broken, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knl-sort", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kindFlag := fs.String("kind", "both", "buffer placement: dram | mcdram | both")
	lines := fs.Int("lines", 0, "input size in cache lines (0 = the three standard panels)")
	verify := fs.Bool("verify", false, "run the real Go parallel sort and verify correctness")
	csv := fs.Bool("csv", false, "emit CSV")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size for independent simulation points (1 = serial; results are identical at every setting)")
	useCache := fs.Bool("cache", false, "memoize simulation results on disk (see -cache-dir)")
	cacheDir := fs.String("cache-dir", "results/.memocache", "directory of the result cache")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fprintf(stderr, "knl-sort: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	kinds := []knl.MemKind{knl.DDR, knl.MCDRAM}
	switch *kindFlag {
	case "both":
	case "dram":
		kinds = kinds[:1]
	case "mcdram":
		kinds = kinds[1:]
	default:
		return usage("-kind must be dram, mcdram or both, not %q", *kindFlag)
	}
	if *lines < 0 {
		return usage("-lines must be positive, or 0 for the three standard panels (got %d)", *lines)
	}

	if *verify && !verifyRealSort(stdout, stderr) {
		return 1
	}

	var mc *memo.Cache
	if *useCache {
		c, err := memo.New(*cacheDir)
		if err != nil {
			return usage("%v", err)
		}
		mc = c
	}
	defer memoReport(mc, stderr)

	cfg := knl.DefaultConfig() // SNC4-flat
	model := core.Default()
	fprintln(stderr, "fitting overhead model from 1 KB sorts...")
	oh := msort.FitOverheadMemo(cfg, model, knl.DDR, nil, *parallel, mc)
	fprintf(stdout, "overhead model: %.0f + %.0f*threads [ns]\n\n", oh.Alpha, oh.Beta)

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
			fprintf(stderr, "panel %s on %v...\n", panel.label, kind)
			pts := msort.Figure10Memo(cfg, model, oh, panel.lines, kind, threadCounts, *parallel, mc)
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
			if *csv {
				t.CSV(stdout)
			} else {
				t.Write(stdout)
				fprintln(stdout)
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
	fprintf(stdout, "MCDRAM vs DRAM at 64 threads, 16 MB: %.2fx (paper: negligible difference)\n", d.Float()/mc.Float())
}

// verifyRealSort sorts 4 MB with the real parallel sort and checks it
// against the standard library; it reports whether the output matched.
func verifyRealSort(stdout, stderr io.Writer) bool {
	fprintln(stderr, "verifying the real parallel sort implementation...")
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
			fprintln(stderr, "knl-sort: REAL SORT IS BROKEN")
			return false
		}
	}
	fprintf(stdout, "real sort verified: 4 MB of int32 sorted correctly with %d threads\n", used)
	return true
}
