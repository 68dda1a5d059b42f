// Command knl-coll regenerates Figures 6, 7 and 8: the model-tuned
// barrier, broadcast and reduce versus the OpenMP-style and MPI-style
// baselines on the simulated KNL, with the min-max model envelope, plus the
// headline speedup factors.
//
// Usage:
//
//	knl-coll -fig 6                # barrier (Figure 6)
//	knl-coll -fig 7 -sched scatter # broadcast, scatter pinning
//	knl-coll -speedups             # max speedups across all three ops
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"knlcap/internal/bench"
	"knlcap/internal/coll"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/memo"
	"knlcap/internal/report"
)

// openMemo opens the on-disk result cache when enabled; a nil cache
// disables memoization throughout the measurement layers.
func openMemo(prog string, enabled bool, dir string) *memo.Cache {
	if !enabled {
		return nil
	}
	c, err := memo.New(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
		os.Exit(2)
	}
	return c
}

// memoReport prints the cache traffic counters to stderr.
func memoReport(c *memo.Cache) {
	if c != nil {
		fmt.Fprintln(os.Stderr, "memo:", c.Stats())
	}
}

func schedOf(s string) knl.Schedule {
	switch s {
	case "scatter":
		return knl.Scatter
	case "fill-tiles", "filltiles":
		return knl.FillTiles
	case "compact":
		return knl.Compact
	default:
		fmt.Fprintf(os.Stderr, "knl-coll: unknown schedule %q\n", s)
		os.Exit(2)
		return 0
	}
}

func main() {
	fig := flag.Int("fig", 6, "figure to regenerate: 6 (barrier), 7 (broadcast), 8 (reduce)")
	opName := flag.String("op", "", "measure an extension collective instead: allreduce | allgather | scan")
	sched := flag.String("sched", "scatter", "pinning: scatter | fill-tiles | compact")
	speedups := flag.Bool("speedups", false, "print max speedups for all three collectives")
	quick := flag.Bool("quick", false, "reduced iterations")
	csv := flag.Bool("csv", false, "emit CSV")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size for independent measurement points (1 = serial; results are identical at every setting)")
	useCache := flag.Bool("cache", false, "memoize measurement results on disk (see -cache-dir)")
	cacheDir := flag.String("cache-dir", "results/.memocache", "directory of the result cache")
	converge := flag.Int("converge", 0,
		"stop deterministic measurement loops after N bit-identical passes and extrapolate (0 = exact; needs -nojitter to fire)")
	nojitter := flag.Bool("nojitter", false, "disable the simulated timing jitter")
	flag.Parse()

	cfg := knl.DefaultConfig() // SNC4-flat, as in the paper's figures
	model := core.Default()
	o := bench.DefaultOptions()
	if *quick {
		o = o.Quick()
	}
	o.WindowNs = 1e6
	o.Parallel = *parallel
	o.ConvergeAfter = *converge
	o.NoJitter = *nojitter
	mc := openMemo("knl-coll", *useCache, *cacheDir)
	o.Memo = mc
	defer memoReport(mc)

	if *speedups {
		printSpeedups(cfg, model, o, schedOf(*sched))
		return
	}
	var op coll.Op
	var figLabel string
	switch *opName {
	case "":
		switch *fig {
		case 6:
			op = coll.Barrier
		case 7:
			op = coll.Bcast
		case 8:
			op = coll.Reduce
		default:
			fmt.Fprintln(os.Stderr, "knl-coll: -fig must be 6, 7 or 8")
			os.Exit(2)
		}
		figLabel = fmt.Sprintf("Figure %d", *fig)
	case "allreduce":
		op, figLabel = coll.Allreduce, "Extension"
	case "allgather":
		op, figLabel = coll.Allgather, "Extension"
	case "scan":
		op, figLabel = coll.Scan, "Extension"
	default:
		fmt.Fprintln(os.Stderr, "knl-coll: unknown -op", *opName)
		os.Exit(2)
	}
	pts := coll.MeasureFigure(cfg, model, o, op, schedOf(*sched), nil)
	t := &report.Table{
		Title: fmt.Sprintf("%s: %v latency [ns], SNC4-flat (MCDRAM), %s schedule",
			figLabel, op, *sched),
		Headers: []string{"Threads",
			"tuned p25", "tuned med", "tuned p75",
			"model best", "model worst",
			"omp med", "mpi med", "vs omp", "vs mpi", "valid"},
	}
	var series [3]report.Series
	series[0].Name = "tuned"
	series[1].Name = "omp"
	series[2].Name = "mpi"
	for _, p := range pts {
		valid := p.Tuned.Validated && p.OMP.Validated && p.MPI.Validated
		t.AddRow(p.Threads,
			p.Tuned.Summary.Q1, p.Tuned.Summary.Med, p.Tuned.Summary.Q3,
			p.Tuned.ModelLo.Float(), p.Tuned.ModelHi.Float(),
			p.OMP.Summary.Med, p.MPI.Summary.Med,
			fmt.Sprintf("%.1fx", p.SpeedupOMP()),
			fmt.Sprintf("%.1fx", p.SpeedupMPI()),
			valid)
		x := float64(p.Threads)
		series[0].X = append(series[0].X, x)
		series[0].Y = append(series[0].Y, p.Tuned.Summary.Med)
		series[1].X = append(series[1].X, x)
		series[1].Y = append(series[1].Y, p.OMP.Summary.Med)
		series[2].X = append(series[2].X, x)
		series[2].Y = append(series[2].Y, p.MPI.Summary.Med)
	}
	if *csv {
		t.CSV(os.Stdout)
		return
	}
	t.Write(os.Stdout)
	fmt.Println()
	pl := &report.Plot{
		Title: fmt.Sprintf("%s (%v)", figLabel, op), XLabel: "threads",
		YLabel: "ns", LogY: true, Series: series[:],
	}
	pl.Write(os.Stdout)
}

func printSpeedups(cfg knl.Config, model *core.Model, o bench.Options, sched knl.Schedule) {
	t := &report.Table{
		Title:   "Headline speedups of the model-tuned collectives (max across thread counts)",
		Headers: []string{"Collective", "vs OpenMP-style", "paper", "vs MPI-style", "paper"},
	}
	paper := map[coll.Op][2]string{
		coll.Barrier: {"7x", "24x"},
		coll.Bcast:   {"3x (cache mode)", "13x"},
		coll.Reduce:  {"5x", "14x"},
	}
	for _, op := range []coll.Op{coll.Barrier, coll.Bcast, coll.Reduce} {
		fmt.Fprintf(os.Stderr, "measuring %v...\n", op)
		pts := coll.MeasureFigure(cfg, model, o, op, sched, []int{8, 16, 32, 64})
		omp, mpi := coll.MaxSpeedups(pts)
		t.AddRow(op.String(), fmt.Sprintf("%.1fx", omp), paper[op][0],
			fmt.Sprintf("%.1fx", mpi), paper[op][1])
	}
	t.Write(os.Stdout)
}
