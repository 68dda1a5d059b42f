// Command knl-trace runs a chosen micro-workload on the simulated KNL with
// the operation tracer attached and prints per-source latency
// distributions, the busiest hardware structures and (optionally) a CSV of
// every operation — the observability companion of the capability model.
//
// Usage:
//
//	knl-trace -workload contention -threads 16
//	knl-trace -workload pingpong
//	knl-trace -workload mixed -csv trace.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/report"
	"knlcap/internal/stats"
	"knlcap/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fprintf writes the command's output, deliberately dropping write
// errors: a run whose own output pipe fails has nothing useful left to
// report.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// workloads maps each -workload name to the function that spawns it on a
// machine with the given thread count.
var workloads = map[string]func(m *machine.Machine, threads int){
	"contention": contention,
	"pingpong":   pingpong,
	"mixed":      mixed,
}

// run is the whole command behind an argument list and two writers, so
// flag validation can be tested in process. It returns the exit code: 0
// on success, 1 if the simulation or the CSV write fails, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knl-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "mixed", "workload: mixed | contention | pingpong")
	threads := fs.Int("threads", 16, "thread count (contention/mixed)")
	csvPath := fs.String("csv", "", "write the raw operation trace to this CSV file")
	clusterMode := fs.String("cluster", "SNC4", "cluster mode")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fprintf(stderr, "knl-trace: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	spawn, ok := workloads[*workload]
	if !ok {
		return usage("unknown workload %q (want mixed, contention or pingpong)", *workload)
	}
	if *threads < 1 {
		return usage("-threads must be at least 1 (got %d)", *threads)
	}
	cm, err := knl.ParseClusterMode(*clusterMode)
	if err != nil {
		return usage("%v", err)
	}
	fail := func(err error) int {
		fprintf(stderr, "knl-trace: %v\n", err)
		return 1
	}

	cfg := knl.DefaultConfig().WithModes(cm, knl.Flat)
	m := machine.New(cfg)
	col := trace.NewCollector(0)
	m.SetTracer(col)
	spawn(m, *threads)
	if _, err := m.Run(); err != nil {
		return fail(err)
	}

	fprintf(stdout, "workload %q on %s: %d traced operations over %.1f us\n\n",
		*workload, cfg.Name(), col.Len(), m.Env.Now()/1e3)
	t := &report.Table{
		Title:   "Latency distribution by data source [ns]",
		Headers: []string{"Source", "Count", "p25", "median", "p75", "max"},
	}
	for _, g := range col.Summaries(trace.BySource) {
		t.AddRow(g.Key, g.Count, g.Summary.Q1, g.Summary.Med, g.Summary.Q3, g.Summary.Max)
	}
	t.Write(stdout)

	fprintf(stdout, "\nbusiest structures:\n")
	for i, rs := range m.StatsReport() {
		if i >= 6 {
			break
		}
		fprintf(stdout, "  %-12s %6d acquires, max queue %2d, utilization %4.1f%%\n",
			rs.Name, rs.Acquires, rs.MaxQueue, 100*rs.Utilization)
	}
	fprintf(stdout, "mesh ring peak utilization: %.2f%%\n", 100*m.MeshUtilization())

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fail(err)
		}
		err = col.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fprintf(stdout, "raw trace written to %s\n", *csvPath)
	}
	return 0
}

// contention reproduces the 1:N Table I benchmark under the tracer.
func contention(m *machine.Machine, n int) {
	shared := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(shared, 0, cache.Modified)
	for i := 0; i < n; i++ {
		core := (2 + 2*i) % knl.NumCores
		local := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
		s := &machine.Script{}
		for it := 0; it < 20; it++ {
			s.Load(shared, 0)
			s.Store(local, 0)
		}
		m.SpawnKernel(place(core), s.Program())
	}
}

// pingpong bounces one flag line between two far tiles; it always runs
// two threads.
func pingpong(m *machine.Machine, _ int) {
	flagBuf := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	ping, pong := &machine.Script{}, &machine.Script{}
	for r := 1; r <= 40; r += 2 {
		ping.StoreWord(flagBuf, 0, uint64(r))
		ping.WaitWordGE(flagBuf, 0, uint64(r+1), nil)
		pong.WaitWordGE(flagBuf, 0, uint64(r), nil)
		pong.StoreWord(flagBuf, 0, uint64(r+1))
	}
	m.SpawnKernel(place(0), ping.Program())
	m.SpawnKernel(place(knl.NumCores-2), pong.Program())
}

// mixed combines local, remote, contended and memory accesses.
func mixed(m *machine.Machine, n int) {
	hot := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(hot, 0, cache.Modified)
	remote := m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
	m.Prime(remote, knl.NumCores/2, cache.Exclusive)
	rng := stats.NewRNG(1)
	for i := 0; i < n; i++ {
		core := (2 + 2*i) % knl.NumCores
		local := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
		cold := m.Alloc.MustAlloc(knl.MCDRAM, 0, 16*knl.LineSize)
		r := stats.NewRNG(rng.Uint64())
		s := &machine.Script{}
		for it := 0; it < 20; it++ {
			s.Load(hot, 0)
			s.Load(local, r.Intn(4))
			s.Load(remote, r.Intn(8))
			s.Load(cold, r.Intn(16))
			s.Store(local, r.Intn(4))
		}
		m.SpawnKernel(place(core), s.Program())
	}
}

func place(core int) knl.Place {
	return knl.Place{Tile: core / knl.CoresPerTile, Core: core}
}
