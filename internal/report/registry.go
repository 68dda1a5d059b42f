package report

import "sort"

// Experiment is one entry of the reproduction's experiment registry: a
// machine-readable version of DESIGN.md's per-experiment index.
type Experiment struct {
	// ID is the table/figure identifier ("table1", "fig6", ...).
	ID string
	// Paper describes what the paper reports there.
	Paper string
	// Command regenerates it from the command line.
	Command string
	// Bench is the testing.B benchmark covering it.
	Bench string
}

var registry = []Experiment{
	{"fig1", "Model-tuned reduce tree for 64 cores (cache mode)",
		"knl-tune -n 32 -cache", "BenchmarkFigure1TunedTree"},
	{"table1", "Cache-to-cache latency/bandwidth/contention/congestion per cluster mode",
		"knl-bench -table 1", "BenchmarkTableI*"},
	{"table2-flat", "Memory latency and bandwidth, flat mode, per cluster mode",
		"knl-bench -table 2 -memmode flat", "BenchmarkTableIIFlat"},
	{"table2-cache", "Memory latency and bandwidth, cache mode",
		"knl-bench -table 2 -memmode cache", "BenchmarkTableIICacheMode"},
	{"fig4", "Latency from core 0 to every core, M/E/I states, SNC4-flat",
		"knl-sweep -fig 4", "BenchmarkFigure4"},
	{"fig5", "Copy bandwidth vs size by placement and state, SNC4-cache",
		"knl-sweep -fig 5", "BenchmarkFigure5"},
	{"fig6", "Barrier vs OpenMP/MPI baselines with min-max model",
		"knl-coll -fig 6", "BenchmarkFigure6Barrier"},
	{"fig7", "Broadcast vs baselines",
		"knl-coll -fig 7", "BenchmarkFigure7Broadcast"},
	{"fig8", "Reduce vs baselines",
		"knl-coll -fig 8", "BenchmarkFigure8Reduce"},
	{"fig9", "Triad bandwidth vs thread count, both schedules, SNC4-flat",
		"knl-sweep -fig 9", "BenchmarkFigure9Triad"},
	{"fig10", "Sort vs memory/overhead models across sizes and threads",
		"knl-sort", "BenchmarkFigure10Sort"},
	{"speedups", "Headline collective speedups over the baselines",
		"knl-coll -speedups", "BenchmarkFigure6Barrier..8"},
	{"ext-allreduce", "Extension: fused tuned allreduce",
		"go test -bench ExtensionAllreduce", "BenchmarkExtensionAllreduce"},
	{"ext-allgather", "Extension: m-way dissemination allgather",
		"go test -bench ExtensionAllgather", "BenchmarkExtensionAllgather"},
	{"ext-scan", "Extension: Hillis-Steele prefix sum",
		"go test -bench ExtensionScan", "BenchmarkExtensionScan"},
	{"ext-numa", "Extension: NUMA-allocation ablation (SNC4)",
		"go test -bench AblationNUMAAllocation", "BenchmarkAblationNUMAAllocation"},
	{"ext-roofline", "Extension: roofline-vs-capability critique",
		"go test -bench RooflineVsCapability", "BenchmarkRooflineVsCapability"},
	{"ext-advisor", "Extension: model-driven MCDRAM placement",
		"knl-advise", "-"},
}

// Experiments returns the registry sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExperimentsTable renders the registry as a Table.
func ExperimentsTable() *Table {
	t := &Table{
		Title:   "Experiment registry (paper tables/figures and extensions)",
		Headers: []string{"ID", "Paper content", "Command", "Benchmark"},
	}
	for _, e := range Experiments() {
		t.AddRow(e.ID, e.Paper, e.Command, e.Bench)
	}
	return t
}
