// Package cli is the command-line contract shared by the binaries under
// cmd/. Each run parses its flags into one flag set that writes its own
// diagnostics to stderr, and ends with one of three exit codes: 0 on
// success (and for -h), 1 when the run itself fails, 2 on a usage error.
// The run options several binaries share are declared here once, with one
// name, default and usage string, and are checked before anything runs.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"knlcap/internal/bench"
	"knlcap/internal/knl"
	"knlcap/internal/memo"
)

// Shared selects the shared flags a command binds.
type Shared uint

const (
	Quick      Shared = 1 << iota // -quick
	CSV                           // -csv
	Iterations                    // -iterations
	Parallel                      // -parallel
	Cache                         // -cache and -cache-dir
	Converge                      // -converge and -nojitter
	Profile                       // -cpuprofile and -memprofile
	Cluster                       // -cluster
	MemMode                       // -memmode
)

// Cmd is one run of a binary: its flag set and the shared flags it binds.
type Cmd struct {
	*flag.FlagSet

	// CSV and Parallel hold the shared flags of those names after Parse.
	// An unbound Parallel keeps bench.DefaultOptions' value.
	CSV      bool
	Parallel int

	name                   string
	stderr                 io.Writer
	quick, nojitter        bool
	iterations, converge   int
	useCache               bool
	cacheDir               string
	cpuProfile, memProfile string
	cluster, memMode       string
	cfg                    knl.Config
	memo                   *memo.Cache
	cpuFile                *os.File
}

// New returns the command name with the shared flags selected by shared
// bound; the command declares its own flags on the embedded flag set.
func New(name string, stderr io.Writer, shared Shared) *Cmd {
	c := &Cmd{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError), name: name, stderr: stderr,
		Parallel: bench.DefaultOptions().Parallel, cfg: knl.DefaultConfig()}
	c.SetOutput(stderr)
	c.cluster, c.memMode = c.cfg.Cluster.String(), c.cfg.Memory.String()
	if shared&Quick != 0 {
		c.BoolVar(&c.quick, "quick", false, "reduced measurement effort")
	}
	if shared&CSV != 0 {
		c.BoolVar(&c.CSV, "csv", false, "emit CSV")
	}
	if shared&Iterations != 0 {
		c.IntVar(&c.iterations, "iterations", 0, "override bandwidth iterations")
	}
	if shared&Parallel != 0 {
		c.IntVar(&c.Parallel, "parallel", runtime.GOMAXPROCS(0),
			"worker-pool size for independent measurement points (1 = serial; results are identical at every setting)")
	}
	if shared&Cache != 0 {
		c.BoolVar(&c.useCache, "cache", false, "memoize measurement results on disk (see -cache-dir)")
		c.StringVar(&c.cacheDir, "cache-dir", "results/.memocache", "directory of the result cache")
	}
	if shared&Converge != 0 {
		c.IntVar(&c.converge, "converge", 0,
			"stop deterministic measurement loops after N bit-identical passes and extrapolate (0 = exact; needs -nojitter to fire)")
		c.BoolVar(&c.nojitter, "nojitter", false, "disable the simulated timing jitter")
	}
	if shared&Profile != 0 {
		c.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
		c.StringVar(&c.memProfile, "memprofile", "", "write an allocation profile of the run to this file")
	}
	if shared&Cluster != 0 {
		c.StringVar(&c.cluster, "cluster", c.cluster, "cluster mode: SNC4 | SNC2 | QUAD | HEM | A2A")
	}
	if shared&MemMode != 0 {
		c.StringVar(&c.memMode, "memmode", c.memMode, "memory mode: flat | cache | hybrid")
	}
	return c
}

// Parse parses args, which must hold flags only, checks the shared flags,
// and opens the memo cache and starts the profiles they ask for. It
// reports whether the command should run; if not, code is its exit code.
// A command that binds Cache or Profile calls Close after a successful
// Parse.
func (c *Cmd) Parse(args []string) (code int, ok bool) { return c.parse(args, false) }

// ParseOperands is Parse for a command that takes operands after its flags.
func (c *Cmd) ParseOperands(args []string) (code int, ok bool) { return c.parse(args, true) }

func (c *Cmd) parse(args []string, operands bool) (int, bool) {
	if err := c.FlagSet.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if !operands && c.NArg() > 0 {
		return c.Usagef("unexpected arguments %q", c.Args()), false
	}
	if err := c.check(); err != nil {
		return c.Usagef("%v", err), false
	}
	if c.useCache {
		m, err := memo.New(c.cacheDir)
		if err != nil {
			return c.Usagef("%v", err), false
		}
		c.memo = m
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				_ = f.Close() // the start error is the one to report
			}
		}
		if err != nil {
			return c.Usagef("cpu profile: %v", err), false
		}
		c.cpuFile = f
	}
	return 0, true
}

func (c *Cmd) check() error {
	switch {
	case c.Parallel < 1:
		return fmt.Errorf("-parallel must be at least 1 (got %d)", c.Parallel)
	case c.converge < 0:
		return fmt.Errorf("-converge must not be negative (got %d)", c.converge)
	case c.iterations < 0:
		return fmt.Errorf("-iterations must not be negative (got %d)", c.iterations)
	}
	cm, err := knl.ParseClusterMode(c.cluster)
	if err != nil {
		return err
	}
	mm, err := knl.ParseMemoryMode(c.memMode)
	if err != nil {
		return err
	}
	c.cfg = c.cfg.WithModes(cm, mm)
	return c.cfg.Validate()
}

// Close ends a run that Parse let start: it prints the memo cache's
// traffic line, stops the CPU profile and writes the allocation profile.
func (c *Cmd) Close() {
	if c.memo != nil {
		Fprintln(c.stderr, "memo:", c.memo.Stats())
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := c.cpuFile.Close(); err != nil {
			Fprintln(c.stderr, c.name+": cpu profile:", err)
		}
	}
	if c.memProfile != "" {
		if err := writeAllocProfile(c.memProfile); err != nil {
			Fprintln(c.stderr, c.name+": mem profile:", err)
		}
	}
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle live-heap numbers before the snapshot
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Options returns bench.DefaultOptions adjusted by the shared flags.
func (c *Cmd) Options() bench.Options {
	o := bench.DefaultOptions()
	if c.quick {
		o = o.Quick()
	}
	if c.iterations > 0 {
		o.Iterations = c.iterations
	}
	o.Parallel = c.Parallel
	o.ConvergeAfter = c.converge
	o.NoJitter = c.nojitter
	o.Memo = c.memo
	return o
}

// Memo returns the result cache -cache opened, or nil.
func (c *Cmd) Memo() *memo.Cache { return c.memo }

// Config returns the validated configuration -cluster and -memmode select
// (SNC4-flat for an unbound flag).
func (c *Cmd) Config() knl.Config { return c.cfg }

// Usagef reports a usage error as "name: msg" on stderr and returns 2.
func (c *Cmd) Usagef(format string, a ...any) int {
	Fprintf(c.stderr, "%s: %s\n", c.name, fmt.Sprintf(format, a...))
	return 2
}

// Fail reports a failed run as "name: err" on stderr and returns 1.
func (c *Cmd) Fail(err error) int {
	Fprintf(c.stderr, "%s: %v\n", c.name, err)
	return 1
}

// Fprintf and Fprintln write a command's output, deliberately dropping
// write errors: a run whose own output pipe fails has nothing useful left
// to report.
func Fprintf(w io.Writer, format string, a ...any) { _, _ = fmt.Fprintf(w, format, a...) }

func Fprintln(w io.Writer, a ...any) { _, _ = fmt.Fprintln(w, a...) }
