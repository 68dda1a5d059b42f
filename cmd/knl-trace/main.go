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
	"fmt"
	"io"
	"os"
	"sort"

	"knlcap/internal/cache"
	"knlcap/internal/cli"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/report"
	"knlcap/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each -workload name to the function that spawns it on a
// machine with the given thread count.
var workloads = map[string]func(m *machine.Machine, threads int){
	"contention": contention,
	"pingpong":   pingpong,
	"mixed":      mixed,
}

// run is the whole command behind an argument list and two writers; it
// returns the exit code (see internal/cli): 1 if the simulation or the
// CSV write fails.
func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-trace", stderr, cli.Cluster)
	workload := c.String("workload", "mixed", "workload: mixed | contention | pingpong")
	threads := c.Int("threads", 16, "thread count (contention/mixed)")
	// -csv names an output file here, not the shared CSV switch.
	csvPath := c.String("csv", "", "write the raw operation trace to this CSV file")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	spawn, ok := workloads[*workload]
	if !ok {
		return c.Usagef("unknown workload %q (want mixed, contention or pingpong)", *workload)
	}
	if *threads < 1 {
		return c.Usagef("-threads must be at least 1 (got %d)", *threads)
	}

	cfg := c.Config()
	m := machine.New(cfg)
	col := &collector{}
	m.SetTracer(col)
	spawn(m, *threads)
	if _, err := m.Run(); err != nil {
		return c.Fail(err)
	}

	cli.Fprintf(stdout, "workload %q on %s: %d traced operations over %.1f us\n\n",
		*workload, cfg.Name(), len(col.records), m.Env.Now()/1e3)
	t := &report.Table{
		Title:   "Latency distribution by data source [ns]",
		Headers: []string{"Source", "Count", "p25", "median", "p75", "max"},
	}
	for _, g := range summaries(col.records) {
		t.AddRow(g.key, g.summary.N, g.summary.Q1, g.summary.Med, g.summary.Q3, g.summary.Max)
	}
	t.Write(stdout)

	cli.Fprintf(stdout, "\nbusiest structures:\n")
	for i, rs := range m.StatsReport() {
		if i >= 6 {
			break
		}
		cli.Fprintf(stdout, "  %-12s %6d acquires, max queue %2d, utilization %4.1f%%\n",
			rs.Name, rs.Acquires, rs.MaxQueue, 100*rs.Utilization)
	}
	cli.Fprintf(stdout, "mesh ring peak utilization: %.2f%%\n", 100*m.MeshUtilization())

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return c.Fail(err)
		}
		err = writeCSV(f, col.records)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return c.Fail(err)
		}
		cli.Fprintf(stdout, "raw trace written to %s\n", *csvPath)
	}
	return 0
}

// collector buffers every operation record the machine emits.
type collector struct {
	records []machine.OpRecord
}

// Record implements machine.Tracer.
func (c *collector) Record(r machine.OpRecord) { c.records = append(c.records, r) }

// bySource groups load records by where the data came from.
func bySource(r machine.OpRecord) string {
	if r.Kind != machine.OpLoad {
		return r.Kind.String()
	}
	return "load/" + r.Source
}

// groupSummary is the latency distribution of one bucket.
type groupSummary struct {
	key     string
	summary stats.Summary
}

// summaries reduces records into per-source latency distributions (see
// bySource), sorted by key.
func summaries(records []machine.OpRecord) []groupSummary {
	buckets := map[string][]float64{}
	for _, r := range records {
		k := bySource(r)
		buckets[k] = append(buckets[k], r.Latency())
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]groupSummary, 0, len(keys))
	for _, k := range keys {
		out = append(out, groupSummary{key: k, summary: stats.Summarize(buckets[k])})
	}
	return out
}

// writeCSV dumps the records for external analysis.
func writeCSV(w io.Writer, records []machine.OpRecord) error {
	if _, err := fmt.Fprintln(w, "start_ns,end_ns,core,kind,source,line"); err != nil {
		return err
	}
	for _, r := range records {
		if _, err := fmt.Fprintf(w, "%.3f,%.3f,%d,%s,%s,%d\n",
			r.Start, r.End, r.Core, r.Kind, r.Source, r.Line); err != nil {
			return err
		}
	}
	return nil
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
