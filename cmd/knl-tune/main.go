// Command knl-tune derives model-tuned communication algorithms from a
// capability model (Figure 1 and the barrier configuration): the optimal
// heterogeneous trees for broadcast and reduce, and the optimal m-way
// dissemination barrier, comparing their predicted cost against standard
// shapes.
//
// Usage:
//
//	knl-tune -n 32                 # tune for 32 tiles (64 cores, Figure 1)
//	knl-tune -n 32 -fit            # fit the model from simulator benchmarks
//	knl-tune -threads 64           # barrier over 64 threads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"knlcap/internal/bench"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/report"
	"knlcap/internal/tune"
)

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
// on success, 1 if the model cannot be loaded or is invalid, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knl-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 32, "tree nodes (tiles)")
	threads := fs.Int("threads", 64, "barrier thread count")
	fit := fs.Bool("fit", false, "fit the model from simulator measurements instead of the paper's published numbers")
	cacheMode := fs.Bool("cache", false, "use cache memory mode (Figure 1's configuration)")
	modelFile := fs.String("model", "", "load a capability model saved by knl-model instead of the built-in one")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fprintf(stderr, "knl-tune: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	if *n < 1 {
		return usage("-n must be at least 1 (got %d)", *n)
	}
	if *threads < 1 {
		return usage("-threads must be at least 1 (got %d)", *threads)
	}

	cfg := knl.DefaultConfig()
	if *cacheMode {
		cfg = cfg.WithModes(knl.SNC4, knl.CacheMode)
	}
	model := core.Default()
	if *modelFile != "" {
		var err error
		if model, err = core.LoadFile(*modelFile); err != nil {
			fprintf(stderr, "knl-tune: %v\n", err)
			return 1
		}
	}
	if *fit {
		fprintln(stderr, "fitting capability model from benchmarks...")
		o := bench.DefaultOptions().Quick()
		t1 := bench.MeasureTableI(cfg, o)
		t2 := bench.MeasureTableII(cfg, o, []int{16, 64}, []knl.Schedule{knl.FillTiles})
		sweep := bench.TriadSweep(cfg, o, knl.FillTiles, []int{1, 8, 16, 64, 128})
		model = core.FromMeasurements(t1, t2, sweep)
	}
	if err := model.Validate(); err != nil {
		fprintf(stderr, "knl-tune: invalid model: %v\n", err)
		return 1
	}

	fprintf(stdout, "capability model (%s): RL=%.1f RR=%.1f RI=%.1f TC=%.0f+%.1fN\n\n",
		cfg.Name(), model.RL, model.RR, model.RI, model.CAlpha, model.CBeta)

	bc := tune.Broadcast(model, *n)
	rd := tune.Reduce(model, *n)
	fprintf(stdout, "Model-tuned broadcast tree over %d tiles (cost %.0f ns):\n%s\n",
		*n, bc.CostNs, tune.RenderTree(bc.Tree))
	fprintf(stdout, "Model-tuned reduce tree over %d tiles — Figure 1 (cost %.0f ns):\n%s\n",
		*n, rd.CostNs, tune.RenderTree(rd.Tree))
	fprintf(stdout, "reduce tree shape: %s\n\n", rd.Tree)

	cmp := &report.Table{
		Title:   "Predicted broadcast cost vs standard shapes [ns]",
		Headers: []string{"Shape", "Cost", "vs tuned"},
	}
	for _, s := range []struct {
		name string
		t    *core.Tree
	}{
		{"model-tuned", bc.Tree},
		{"binomial", core.BinomialTree(*n)},
		{"binary (k=2)", core.KAryTree(*n, 2)},
		{"4-ary", core.KAryTree(*n, 4)},
		{"flat", core.FlatTree(*n)},
	} {
		c := model.BroadcastCost(s.t)
		cmp.AddRow(s.name, c.Float(), fmt.Sprintf("%.2fx", c.Float()/bc.CostNs.Float()))
	}
	cmp.Write(stdout)

	b := tune.Barrier(model, *threads)
	fprintf(stdout, "\nModel-tuned dissemination barrier over %d threads: m=%d, r=%d rounds, predicted %.0f ns\n",
		b.N, b.M, b.Rounds, b.CostNs)
	bcmp := &report.Table{
		Title:   "Predicted barrier cost by fan-out m [ns]",
		Headers: []string{"m", "rounds", "cost"},
	}
	for _, mw := range []int{1, 2, 3, 5, 7, 15, *threads - 1} {
		bcmp.AddRow(mw, core.DisseminationRounds(*threads, mw), model.BarrierCost(*threads, mw).Float())
	}
	bcmp.Write(stdout)
	return 0
}
