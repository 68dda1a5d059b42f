// Command knl-sweep regenerates the sweep figures: Figure 4 (per-core
// cache-to-cache latency from core 0, SNC4-flat), Figure 5 (copy bandwidth
// versus message size by placement and state, SNC4-cache) and Figure 9
// (triad bandwidth versus thread count, SNC4-flat, both schedules).
//
// Usage:
//
//	knl-sweep -fig 4
//	knl-sweep -fig 5 -quick
//	knl-sweep -fig 9 -sched compact
package main

import (
	"fmt"
	"io"
	"os"

	"knlcap/internal/bench"
	"knlcap/internal/cache"
	"knlcap/internal/cli"
	"knlcap/internal/knl"
	"knlcap/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind an argument list and two writers; it
// returns the exit code (see internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-sweep", stderr, cli.Quick|cli.CSV|cli.Parallel|cli.Cache|cli.Converge|cli.Profile)
	fig := c.Int("fig", 4, "figure to regenerate: 4, 5 or 9")
	sched := c.String("sched", "fill-tiles", "figure 9 schedule: fill-tiles | compact")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	defer c.Close()
	sc, err := knl.ParseSchedule(*sched)
	if err != nil || sc == knl.Scatter {
		return c.Usagef("-sched must be fill-tiles or compact (got %q)", *sched)
	}

	o := c.Options()
	var t *report.Table
	var plot *report.Plot
	switch *fig {
	case 4:
		t, plot = figure4(o)
	case 5:
		t, plot = figure5(o)
	case 9:
		t, plot = figure9(o, sc)
	default:
		return c.Usagef("-fig must be 4, 5 or 9")
	}
	if c.CSV {
		t.CSV(stdout)
		return 0
	}
	t.Write(stdout)
	cli.Fprintln(stdout)
	plot.Write(stdout)
	return 0
}

func figure4(o bench.Options) (*report.Table, *report.Plot) {
	cfg := knl.DefaultConfig() // SNC4-flat
	o.Averages /= 2
	if o.Averages < 4 {
		o.Averages = 4
	}
	states := []cache.State{cache.Modified, cache.Exclusive, cache.Invalid}
	pts := bench.MeasurePerCoreLatencies(cfg, o, states)
	t := &report.Table{
		Title:   "Figure 4: latency of cache-line transfers between core 0 and every other core (SNC4-flat) [ns]",
		Headers: []string{"Core", "M", "E", "I"},
	}
	byCore := map[int]map[cache.State]float64{}
	for _, p := range pts {
		if byCore[p.Core] == nil {
			byCore[p.Core] = map[cache.State]float64{}
		}
		byCore[p.Core][p.State] = p.Latency
	}
	series := []report.Series{{Name: "M"}, {Name: "E"}, {Name: "I"}}
	for c := 1; c < knl.NumCores; c++ {
		row := byCore[c]
		t.AddRow(c, row[cache.Modified], row[cache.Exclusive], row[cache.Invalid])
		for i, st := range states {
			series[i].X = append(series[i].X, float64(c))
			series[i].Y = append(series[i].Y, row[st])
		}
	}
	return t, &report.Plot{Title: "Figure 4", XLabel: "core", YLabel: "ns", Series: series}
}

func figure5(o bench.Options) (*report.Table, *report.Plot) {
	cfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode)
	o.Iterations /= 2
	if o.Iterations < 4 {
		o.Iterations = 4
	}
	var sizes []int
	for b := 64; b <= 256<<10; b *= 4 {
		sizes = append(sizes, b)
	}
	pts := bench.MeasureCopyBySize(cfg, o, sizes)
	t := &report.Table{
		Title:   "Figure 5: bandwidth of cache-to-cache copies (SNC4-cache) [GB/s]",
		Headers: []string{"Placement", "State", "Bytes", "GB/s"},
	}
	seriesIdx := map[string]int{}
	var series []report.Series
	for _, p := range pts {
		t.AddRow(p.Placement.String(), p.State.String(), p.Bytes, p.GBs)
		key := fmt.Sprintf("%s/%s", p.Placement, p.State)
		i, ok := seriesIdx[key]
		if !ok {
			i = len(series)
			seriesIdx[key] = i
			series = append(series, report.Series{Name: key})
		}
		series[i].X = append(series[i].X, float64(p.Bytes))
		series[i].Y = append(series[i].Y, p.GBs)
	}
	return t, &report.Plot{Title: "Figure 5", XLabel: "bytes", YLabel: "GB/s", Series: series}
}

func figure9(o bench.Options, sched knl.Schedule) (*report.Table, *report.Plot) {
	cfg := knl.DefaultConfig() // SNC4-flat
	counts := []int{1, 4, 8, 16, 32, 64, 128, 256}
	if o.Iterations > 20 {
		o.Iterations = 20
	}
	pts := bench.TriadSweep(cfg, o, sched, counts)
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 9: triad bandwidth (SNC4-flat, %v schedule) [GB/s]", sched),
		Headers: []string{"Threads", "Cores", "Kind", "GB/s"},
	}
	series := map[knl.MemKind]*report.Series{
		knl.MCDRAM: {Name: "MCDRAM"},
		knl.DDR:    {Name: "DRAM"},
	}
	for _, p := range pts {
		t.AddRow(p.Threads, p.Cores, p.Kind.String(), p.GBs)
		s := series[p.Kind]
		s.X = append(s.X, float64(p.Threads))
		s.Y = append(s.Y, p.GBs)
	}
	return t, &report.Plot{
		Title: "Figure 9", XLabel: "threads", YLabel: "GB/s",
		Series: []report.Series{*series[knl.MCDRAM], *series[knl.DDR]},
	}
}
