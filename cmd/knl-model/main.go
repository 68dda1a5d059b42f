// Command knl-model manages capability-model files: fit a model from the
// benchmark suite and save it as JSON, inspect a saved model, and compare
// two models (e.g. a fresh fit against the paper's published numbers).
//
// Usage:
//
//	knl-model fit -o model.json [-cluster SNC4] [-quick]
//	knl-model show model.json
//	knl-model compare a.json b.json     # or "paper" for the built-in model
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
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage:
  knl-model fit -o model.json [-cluster SNC4|SNC2|QUAD|HEM|A2A] [-quick]
  knl-model show <model.json|paper>
  knl-model compare <a.json|paper> <b.json|paper>`

// run is the whole command behind an argument list and two writers; it
// returns the exit code (see internal/cli): 1 if a model cannot be
// loaded, fitted or saved.
func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-model", stderr, 0)
	c.Usage = func() { cli.Fprintln(stderr, usage) }
	if code, ok := c.ParseOperands(args); !ok {
		return code
	}
	switch ops := c.Args(); {
	case len(ops) > 0 && ops[0] == "fit":
		return fitCmd(ops[1:], stdout, stderr)
	case len(ops) == 2 && ops[0] == "show":
		return showCmd(c, ops[1], stdout)
	case len(ops) == 3 && ops[0] == "compare":
		return compareCmd(c, ops[1], ops[2], stdout)
	}
	c.Usage()
	return 2
}

func loadModel(arg string) (*core.Model, error) {
	if arg == "paper" {
		return core.Default(), nil
	}
	return core.LoadFile(arg)
}

func fitCmd(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-model fit", stderr, cli.Quick|cli.Cluster)
	out := c.String("o", "model.json", "output file")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	cfg, o := c.Config(), c.Options()
	cli.Fprintf(stderr, "benchmarking %s (Table I)...\n", cfg.Name())
	t1 := bench.MeasureTableI(cfg, o)
	cli.Fprintln(stderr, "benchmarking memory (Table II subset)...")
	t2 := bench.MeasureTableII(cfg, o, []int{16, 64}, []knl.Schedule{knl.FillTiles})
	cli.Fprintln(stderr, "sweeping achievable bandwidth (Figure 9 points)...")
	sweep := bench.TriadSweep(cfg, o, knl.FillTiles, []int{1, 8, 16, 64, 128})
	m := core.FromMeasurements(t1, t2, sweep)
	if err := m.Validate(); err != nil {
		return c.Fail(fmt.Errorf("fit produced invalid model: %w", err))
	}
	if err := m.SaveFile(*out); err != nil {
		return c.Fail(err)
	}
	cli.Fprintf(stdout, "fitted model for %s written to %s\n", cfg.Name(), *out)
	cli.Fprintf(stdout, "max deviation from the paper's published model: %.1f%%\n",
		100*core.MaxRelDelta(m, core.Default()))
	return 0
}

func showCmd(c *cli.Cmd, arg string, stdout io.Writer) int {
	m, err := loadModel(arg)
	if err != nil {
		return c.Fail(err)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Capability model (%s)", m.Config.Name()),
		Headers: []string{"Parameter", "Value"},
	}
	t.AddRow("RL (local cache read) [ns]", m.RL.Float())
	t.AddRow("R tile M/E/SF [ns]", fmt.Sprintf("%s / %s / %s",
		report.FormatFloat(m.RTileM.Float()), report.FormatFloat(m.RTileE.Float()), report.FormatFloat(m.RTileSF.Float())))
	t.AddRow("RR (remote cache read) [ns]", fmt.Sprintf("%s (band %s-%s)",
		report.FormatFloat(m.RR.Float()), report.FormatFloat(m.RRMin.Float()), report.FormatFloat(m.RRMax.Float())))
	t.AddRow("RI (memory read) [ns]", m.RI.Float())
	t.AddRow("RI MCDRAM [ns]", m.RIMCDRAM.Float())
	t.AddRow("Contention T_C(N) [ns]", fmt.Sprintf("%s + %s*N",
		report.FormatFloat(m.CAlpha.Float()), report.FormatFloat(m.CBeta.Float())))
	t.AddRow("BW remote copy [GB/s]", m.BWRemoteCopy.Float())
	t.AddRow("BW tile copy E/M [GB/s]", fmt.Sprintf("%s / %s",
		report.FormatFloat(m.BWTileCopyE.Float()), report.FormatFloat(m.BWTileCopyM.Float())))
	t.AddRow("BW remote read [GB/s]", m.BWRemoteRead.Float())
	for _, kind := range []knl.MemKind{knl.DDR, knl.MCDRAM} {
		for _, p := range m.BWCurve[kind] {
			t.AddRow(fmt.Sprintf("BW %v @%d threads [GB/s]", kind, p.Threads), p.GBs.Float())
		}
	}
	t.Write(stdout)
	return 0
}

func compareCmd(c *cli.Cmd, nameA, nameB string, stdout io.Writer) int {
	a, err := loadModel(nameA)
	if err != nil {
		return c.Fail(err)
	}
	b, err := loadModel(nameB)
	if err != nil {
		return c.Fail(err)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Model comparison: %s vs %s", nameA, nameB),
		Headers: []string{"Parameter", nameA, nameB, "rel delta"},
	}
	for _, d := range core.Compare(a, b) {
		t.AddRow(d.Name, d.A, d.B, fmt.Sprintf("%.1f%%", 100*d.RelDelta))
	}
	t.Write(stdout)
	return 0
}
