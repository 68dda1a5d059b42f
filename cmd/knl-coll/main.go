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
	"fmt"
	"io"
	"os"

	"knlcap/internal/bench"
	"knlcap/internal/cli"
	"knlcap/internal/coll"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind an argument list and two writers; it
// returns the exit code (see internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-coll", stderr, cli.Quick|cli.CSV|cli.Parallel|cli.Cache)
	fig := c.Int("fig", 6, "figure to regenerate: 6 (barrier), 7 (broadcast), 8 (reduce)")
	opName := c.String("op", "", "measure an extension collective instead: allreduce | allgather | scan")
	schedName := c.String("sched", "scatter", "pinning: scatter | fill-tiles | compact")
	speedups := c.Bool("speedups", false, "print max speedups for all three collectives")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	defer c.Close()
	sched, err := knl.ParseSchedule(*schedName)
	if err != nil {
		return c.Usagef("%v", err)
	}

	cfg := knl.DefaultConfig() // SNC4-flat, as in the paper's figures
	model := core.Default()
	o := c.Options()
	o.WindowNs = 1e6

	if *speedups {
		printSpeedups(stdout, stderr, cfg, model, o, sched)
		return 0
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
			return c.Usagef("-fig must be 6, 7 or 8")
		}
		figLabel = fmt.Sprintf("Figure %d", *fig)
	case "allreduce":
		op, figLabel = coll.Allreduce, "Extension"
	case "allgather":
		op, figLabel = coll.Allgather, "Extension"
	case "scan":
		op, figLabel = coll.Scan, "Extension"
	default:
		return c.Usagef("unknown -op %s", *opName)
	}
	pts := coll.MeasureFigure(cfg, model, o, op, sched, nil)
	t := &report.Table{
		Title: fmt.Sprintf("%s: %v latency [ns], SNC4-flat (MCDRAM), %s schedule",
			figLabel, op, *schedName),
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
	if c.CSV {
		t.CSV(stdout)
		return 0
	}
	t.Write(stdout)
	cli.Fprintln(stdout)
	pl := &report.Plot{
		Title: fmt.Sprintf("%s (%v)", figLabel, op), XLabel: "threads",
		YLabel: "ns", LogY: true, Series: series[:],
	}
	pl.Write(stdout)
	return 0
}

func printSpeedups(stdout, stderr io.Writer, cfg knl.Config, model *core.Model, o bench.Options, sched knl.Schedule) {
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
		cli.Fprintf(stderr, "measuring %v...\n", op)
		pts := coll.MeasureFigure(cfg, model, o, op, sched, []int{8, 16, 32, 64})
		omp, mpi := coll.MaxSpeedups(pts)
		t.AddRow(op.String(), fmt.Sprintf("%.1fx", omp), paper[op][0],
			fmt.Sprintf("%.1fx", mpi), paper[op][1])
	}
	t.Write(stdout)
}
