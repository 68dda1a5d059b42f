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
	"fmt"
	"io"
	"os"

	"knlcap/internal/bench"
	"knlcap/internal/cli"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/report"
	"knlcap/internal/tune"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind an argument list and two writers; it
// returns the exit code (see internal/cli): 1 if the model cannot be
// loaded or is invalid.
func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-tune", stderr, 0)
	n := c.Int("n", 32, "tree nodes (tiles)")
	threads := c.Int("threads", 64, "barrier thread count")
	fit := c.Bool("fit", false, "fit the model from simulator measurements instead of the paper's published numbers")
	// -cache names the memory mode here, not the shared result cache.
	cacheMode := c.Bool("cache", false, "use cache memory mode (Figure 1's configuration)")
	modelFile := c.String("model", "", "load a capability model saved by knl-model instead of the built-in one")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	if *n < 1 {
		return c.Usagef("-n must be at least 1 (got %d)", *n)
	}
	if *threads < 1 {
		return c.Usagef("-threads must be at least 1 (got %d)", *threads)
	}

	cfg := knl.DefaultConfig()
	if *cacheMode {
		cfg = cfg.WithModes(knl.SNC4, knl.CacheMode)
	}
	model := core.Default()
	if *modelFile != "" {
		var err error
		if model, err = core.LoadFile(*modelFile); err != nil {
			return c.Fail(err)
		}
	}
	if *fit {
		cli.Fprintln(stderr, "fitting capability model from benchmarks...")
		o := bench.DefaultOptions().Quick()
		t1 := bench.MeasureTableI(cfg, o)
		t2 := bench.MeasureTableII(cfg, o, []int{16, 64}, []knl.Schedule{knl.FillTiles})
		sweep := bench.TriadSweep(cfg, o, knl.FillTiles, []int{1, 8, 16, 64, 128})
		model = core.FromMeasurements(t1, t2, sweep)
	}
	if err := model.Validate(); err != nil {
		return c.Fail(fmt.Errorf("invalid model: %w", err))
	}

	cli.Fprintf(stdout, "capability model (%s): RL=%.1f RR=%.1f RI=%.1f TC=%.0f+%.1fN\n\n",
		cfg.Name(), model.RL, model.RR, model.RI, model.CAlpha, model.CBeta)

	bc := tune.Broadcast(model, *n)
	rd := tune.Reduce(model, *n)
	cli.Fprintf(stdout, "Model-tuned broadcast tree over %d tiles (cost %.0f ns):\n%s\n",
		*n, bc.CostNs, tune.RenderTree(bc.Tree))
	cli.Fprintf(stdout, "Model-tuned reduce tree over %d tiles — Figure 1 (cost %.0f ns):\n%s\n",
		*n, rd.CostNs, tune.RenderTree(rd.Tree))
	cli.Fprintf(stdout, "reduce tree shape: %s\n\n", rd.Tree)

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
	cli.Fprintf(stdout, "\nModel-tuned dissemination barrier over %d threads: m=%d, r=%d rounds, predicted %.0f ns\n",
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
