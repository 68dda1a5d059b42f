// Command knl-bench regenerates the paper's Table I (cache-to-cache
// capabilities) and Table II (memory capabilities) by running the benchmark
// suite against the simulated KNL in every cluster mode.
//
// Usage:
//
//	knl-bench -table 1                 # Table I, all cluster modes
//	knl-bench -table 2 -memmode flat   # Table II flat section
//	knl-bench -table 2 -memmode cache  # Table II cache-mode section
//	knl-bench -quick                   # reduced iteration counts
//	knl-bench -csv                     # CSV instead of aligned text
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"knlcap/internal/bench"
	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memo"
	"knlcap/internal/prof"
	"knlcap/internal/report"
)

// cacheE names the source state of the multi-line row.
func cacheE() cache.State { return cache.Exclusive }

func main() {
	table := flag.Int("table", 1, "which table to regenerate (1 or 2)")
	memmode := flag.String("memmode", "flat", "memory mode for table 2: flat, cache or hybrid")
	quick := flag.Bool("quick", false, "reduced measurement effort")
	csv := flag.Bool("csv", false, "emit CSV")
	iterations := flag.Int("iterations", 0, "override bandwidth iterations")
	experiments := flag.Bool("experiments", false, "list the experiment registry and exit")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size for independent measurement points (1 = serial; results are identical at every setting)")
	useCache := flag.Bool("cache", false, "memoize measurement results on disk (see -cache-dir)")
	cacheDir := flag.String("cache-dir", "results/.memocache", "directory of the result cache")
	converge := flag.Int("converge", 0,
		"stop deterministic measurement loops after N bit-identical passes and extrapolate (0 = exact; needs -nojitter to fire)")
	nojitter := flag.Bool("nojitter", false, "disable the simulated timing jitter")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knl-bench:", err)
		os.Exit(2)
	}
	defer stopProf()

	if *experiments {
		report.ExperimentsTable().Write(os.Stdout)
		return
	}

	o := bench.DefaultOptions()
	if *quick {
		o = o.Quick()
	}
	if *iterations > 0 {
		o.Iterations = *iterations
	}
	o.Parallel = *parallel
	o.ConvergeAfter = *converge
	o.NoJitter = *nojitter
	mc := openMemo("knl-bench", *useCache, *cacheDir)
	o.Memo = mc
	defer memoReport(mc)

	switch *table {
	case 1:
		emit(tableI(o), *csv)
	case 2:
		mm, err := knl.ParseMemoryMode(*memmode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "knl-bench:", err)
			os.Exit(2)
		}
		emit(tableII(o, mm), *csv)
	default:
		fmt.Fprintln(os.Stderr, "knl-bench: -table must be 1 or 2")
		os.Exit(2)
	}
}

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

func emit(t *report.Table, csv bool) {
	if csv {
		t.CSV(os.Stdout)
		return
	}
	t.Write(os.Stdout)
}

func rangeStr(r bench.Range) string {
	if r.Hi-r.Lo < 1 {
		return report.FormatFloat((r.Lo + r.Hi) / 2)
	}
	return fmt.Sprintf("%s-%s", report.FormatFloat(r.Lo), report.FormatFloat(r.Hi))
}

func tableI(o bench.Options) *report.Table {
	t := &report.Table{
		Title:   "Table I: cache-to-cache benchmark results (simulated KNL)",
		Headers: []string{"Metric"},
	}
	var cols []bench.TableI
	for _, cfg := range knl.AllConfigs(knl.Flat) {
		fmt.Fprintf(os.Stderr, "measuring %s...\n", cfg.Name())
		t.Headers = append(t.Headers, cfg.Cluster.String())
		cols = append(cols, bench.MeasureTableI(cfg, o))
	}
	row := func(name string, f func(c bench.TableI) string) {
		cells := []interface{}{name}
		for _, c := range cols {
			cells = append(cells, f(c))
		}
		t.AddRow(cells...)
	}
	row("Latency local L1 [ns]", func(c bench.TableI) string {
		return report.FormatFloat(c.Latency.LocalL1)
	})
	row("Latency tile M [ns]", func(c bench.TableI) string {
		return report.FormatFloat(c.Latency.TileM)
	})
	row("Latency tile E [ns]", func(c bench.TableI) string {
		return report.FormatFloat(c.Latency.TileE)
	})
	row("Latency tile S/F [ns]", func(c bench.TableI) string {
		return report.FormatFloat(c.Latency.TileSF)
	})
	row("Latency remote M [ns]", func(c bench.TableI) string { return rangeStr(c.Latency.RemoteM) })
	row("Latency remote E [ns]", func(c bench.TableI) string { return rangeStr(c.Latency.RemoteE) })
	row("Latency remote S/F [ns]", func(c bench.TableI) string { return rangeStr(c.Latency.RemoteSF) })
	row("BW read [GB/s]", func(c bench.TableI) string {
		return report.FormatFloat(c.Bandwidth.Read)
	})
	row("BW copy tile M [GB/s]", func(c bench.TableI) string {
		return report.FormatFloat(c.Bandwidth.CopyTileM)
	})
	row("BW copy tile E [GB/s]", func(c bench.TableI) string {
		return report.FormatFloat(c.Bandwidth.CopyTileE)
	})
	row("BW copy remote [GB/s]", func(c bench.TableI) string {
		return report.FormatFloat(c.Bandwidth.CopyRemote)
	})
	row("Congestion (P2P ratio)", func(c bench.TableI) string {
		if c.Congestion.Ratio < 1.15 {
			return "None"
		}
		return report.FormatFloat(c.Congestion.Ratio)
	})
	row("Contention alpha [ns]", func(c bench.TableI) string {
		return report.FormatFloat(c.Contention.Alpha)
	})
	row("Contention beta [ns]", func(c bench.TableI) string {
		return report.FormatFloat(c.Contention.Beta)
	})
	// Section IV-A.4's multi-line model, measured per mode.
	fits := map[string]bench.MultiLineFit{}
	for i, cfg := range knl.AllConfigs(knl.Flat) {
		fits[t.Headers[i+1]] = bench.MeasureMultiLine(cfg, o, cacheE(), nil)
	}
	cells := []interface{}{"Multi-line a+b*N [ns]"}
	for _, h := range t.Headers[1:] {
		f := fits[h]
		cells = append(cells, fmt.Sprintf("%s+%sN",
			report.FormatFloat(f.Alpha), report.FormatFloat(f.Beta)))
	}
	t.AddRow(cells...)
	return t
}

func tableII(o bench.Options, mm knl.MemoryMode) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Table II: memory benchmark results, %v mode (simulated KNL)", mm),
		Headers: []string{"Metric"},
	}
	var cols []bench.TableII
	for _, cfg := range knl.AllConfigs(mm) {
		fmt.Fprintf(os.Stderr, "measuring %s...\n", cfg.Name())
		t.Headers = append(t.Headers, cfg.Cluster.String())
		cols = append(cols, bench.MeasureTableII(cfg, o, nil, nil))
	}
	row := func(name string, f func(c bench.TableII) string) {
		cells := []interface{}{name}
		for _, c := range cols {
			cells = append(cells, f(c))
		}
		t.AddRow(cells...)
	}
	if mm != knl.CacheMode {
		row("Latency DRAM [ns]", func(c bench.TableII) string { return rangeStr(c.Latency.DRAM) })
		row("Latency MCDRAM [ns]", func(c bench.TableII) string { return rangeStr(c.Latency.MCDRAM) })
		for _, k := range []struct {
			name string
			sel  func(c bench.TableII) bench.TableIIKind
		}{
			{"DRAM", func(c bench.TableII) bench.TableIIKind { return c.DRAM }},
			{"MCDRAM", func(c bench.TableII) bench.TableIIKind { return c.MCDRAM }},
		} {
			k := k
			row("BW "+k.name+" copy NT/STREAM [GB/s]", func(c bench.TableII) string {
				b := k.sel(c)
				return fmt.Sprintf("%s / %s", report.FormatFloat(b.CopyNT), report.FormatFloat(b.StreamCopy))
			})
			row("BW "+k.name+" read [GB/s]", func(c bench.TableII) string {
				return report.FormatFloat(k.sel(c).Read)
			})
			row("BW "+k.name+" write [GB/s]", func(c bench.TableII) string {
				return report.FormatFloat(k.sel(c).Write)
			})
			row("BW "+k.name+" triad NT/STREAM [GB/s]", func(c bench.TableII) string {
				b := k.sel(c)
				return fmt.Sprintf("%s / %s", report.FormatFloat(b.TriadNT), report.FormatFloat(b.StreamTrd))
			})
		}
		return t
	}
	row("Latency [ns]", func(c bench.TableII) string { return rangeStr(c.Latency.Cache) })
	row("BW copy NT/STREAM [GB/s]", func(c bench.TableII) string {
		return fmt.Sprintf("%s / %s", report.FormatFloat(c.DRAM.CopyNT), report.FormatFloat(c.DRAM.StreamCopy))
	})
	row("BW read [GB/s]", func(c bench.TableII) string { return report.FormatFloat(c.DRAM.Read) })
	row("BW write [GB/s]", func(c bench.TableII) string { return report.FormatFloat(c.DRAM.Write) })
	row("BW triad NT/STREAM [GB/s]", func(c bench.TableII) string {
		return fmt.Sprintf("%s / %s", report.FormatFloat(c.DRAM.TriadNT), report.FormatFloat(c.DRAM.StreamTrd))
	})
	return t
}
