// Trace-analysis: run a mixed workload on the simulated KNL with the
// operation tracer attached, then print the latency distribution per data
// source — the raw material a capability model is fitted from — and the
// busiest hardware structures.
//
//	go run ./examples/trace-analysis
package main

import (
	"fmt"
	"os"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/report"
	"knlcap/internal/stats"
	"knlcap/internal/trace"
)

func main() {
	cfg := knl.DefaultConfig()
	m := machine.New(cfg)
	col := trace.NewCollector(0)
	m.SetTracer(col)

	// A mixed workload: a shared hot line (contended), per-thread local
	// lines (L1 hits), one remote producer/consumer pair, and cold memory.
	hot := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(hot, 0, cache.Modified)
	remote := m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
	m.Prime(remote, 40, cache.Exclusive)
	rng := stats.NewRNG(1)
	for i := 0; i < 16; i++ {
		core := 2 + i*2
		local := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
		cold := m.Alloc.MustAlloc(knl.DDR, 0, 16*knl.LineSize)
		r := stats.NewRNG(rng.Uint64())
		s := &machine.Script{}
		for it := 0; it < 20; it++ {
			s.Load(hot, 0)              // contended remote line
			s.Load(local, r.Intn(4))    // L1 after first touch
			s.Load(remote, r.Intn(8))   // cache-to-cache, then shared
			s.Load(cold, r.Intn(16))    // memory (first touches)
			s.Store(local, r.Intn(4))   // local store
			s.StoreNT(cold, r.Intn(16)) // streaming store
		}
		m.SpawnKernel(knl.Place{Tile: core / 2, Core: core}, s.Program())
	}
	if _, err := m.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("traced %d operations over %.1f us of simulated time\n\n",
		col.Len(), m.Env.Now()/1e3)

	t := &report.Table{
		Title:   "Latency distribution by data source [ns]",
		Headers: []string{"Source", "Count", "p25", "median", "p75", "max"},
	}
	for _, g := range col.Summaries(trace.BySource) {
		t.AddRow(g.Key, g.Count, g.Summary.Q1, g.Summary.Med, g.Summary.Q3, g.Summary.Max)
	}
	t.Write(os.Stdout)

	fmt.Println("\nbusiest hardware structures:")
	for i, rs := range m.StatsReport() {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-12s %6d acquires, max queue %2d, utilization %.1f%%\n",
			rs.Name, rs.Acquires, rs.MaxQueue, 100*rs.Utilization)
	}
	traffic := m.ChannelTraffic()
	fmt.Printf("\nmemory traffic: DDR %d reads / %d writes; MCDRAM %d / %d (lines)\n",
		traffic[knl.DDR][0], traffic[knl.DDR][1],
		traffic[knl.MCDRAM][0], traffic[knl.MCDRAM][1])
	fmt.Printf("mesh ring peak utilization: %.2f%% (the paper's \"Congestion: None\")\n",
		100*m.MeshUtilization())
}
