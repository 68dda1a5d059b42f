// Command knl-advise is the flat-mode memory-placement advisor: given a
// workload's arrays (size, access pattern, thread count), it uses the
// capability model to decide which arrays earn MCDRAM placement under the
// 16 GB budget — the paper's "we need performance models in order to
// decide which data has to be allocated in which memory".
//
// Usage:
//
//	knl-advise                                    # built-in demo workload
//	knl-advise -array grid:8g:streaming:128 \
//	           -array index:4g:random:64 \
//	           -array sortbuf:12g:sort:256:30
//	knl-advise -model fitted.json -budget 8g
//
// Array spec: name:bytes:pattern:threads[:touchesPerByte] with pattern one
// of streaming | random | sort, and bytes accepting k/m/g suffixes.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"knlcap/internal/advisor"
	"knlcap/internal/cli"
	"knlcap/internal/core"
)

type arrayFlags []string

func (a *arrayFlags) String() string { return strings.Join(*a, ",") }
func (a *arrayFlags) Set(v string) error {
	*a = append(*a, v)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind an argument list and two writers; it
// returns the exit code (see internal/cli): 1 if the model file cannot be
// loaded. Every advisor error is a rejected input, so it exits 2.
func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("knl-advise", stderr, 0)
	var specs arrayFlags
	c.Var(&specs, "array", "array spec name:bytes:pattern:threads[:touches]; repeatable")
	budget := c.String("budget", "16g", "MCDRAM budget (k/m/g suffixes)")
	modelFile := c.String("model", "", "capability model JSON (default: the paper's numbers)")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	arrays := demoWorkload()
	if len(specs) > 0 {
		arrays = arrays[:0]
		for _, s := range specs {
			a, err := parseArray(s)
			if err != nil {
				return c.Usagef("%v", err)
			}
			arrays = append(arrays, a)
		}
	}
	budgetBytes, err := parseBytes(*budget)
	if err != nil {
		return c.Usagef("%v", err)
	}
	if budgetBytes <= 0 {
		return c.Usagef("-budget must be positive (got %q)", *budget)
	}
	model := core.Default()
	if *modelFile != "" {
		if model, err = core.LoadFile(*modelFile); err != nil {
			return c.Fail(err)
		}
	}
	plan, err := advisor.Advise(model, arrays, budgetBytes)
	if err != nil {
		return c.Usagef("%v", err)
	}
	if len(specs) == 0 {
		cli.Fprintln(stdout, "(no -array given: using the built-in demo workload)")
	}
	cli.Fprintf(stdout, "%v", plan)
	return 0
}

func demoWorkload() []advisor.Array {
	return []advisor.Array{
		{Name: "stencil-grid", Bytes: 8 << 30, Pattern: advisor.Streaming, Threads: 128, TouchesPerByte: 50},
		{Name: "graph-index", Bytes: 6 << 30, Pattern: advisor.RandomAccess, Threads: 64, TouchesPerByte: 10},
		{Name: "sort-buffers", Bytes: 10 << 30, Pattern: advisor.MergeSortLike, Threads: 256, TouchesPerByte: 1},
		{Name: "input-staging", Bytes: 12 << 30, Pattern: advisor.Streaming, Threads: 16, TouchesPerByte: 1},
	}
}

func parseArray(s string) (advisor.Array, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 4 || len(parts) > 5 {
		return advisor.Array{}, fmt.Errorf("bad array spec %q", s)
	}
	bytes, err := parseBytes(parts[1])
	if err != nil {
		return advisor.Array{}, err
	}
	var pat advisor.Pattern
	switch parts[2] {
	case "streaming":
		pat = advisor.Streaming
	case "random":
		pat = advisor.RandomAccess
	case "sort":
		pat = advisor.MergeSortLike
	default:
		return advisor.Array{}, fmt.Errorf("unknown pattern %q", parts[2])
	}
	threads, err := strconv.Atoi(parts[3])
	if err != nil {
		return advisor.Array{}, fmt.Errorf("bad thread count in %q", s)
	}
	touches := 1.0
	if len(parts) == 5 {
		if touches, err = strconv.ParseFloat(parts[4], 64); err != nil {
			return advisor.Array{}, fmt.Errorf("bad touches in %q", s)
		}
	}
	return advisor.Array{Name: parts[0], Bytes: bytes, Pattern: pat,
		Threads: threads, TouchesPerByte: touches}, nil
}

func parseBytes(s string) (int64, error) {
	mult := int64(1)
	low := strings.ToLower(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(low, "g"):
		mult, low = 1<<30, strings.TrimSuffix(low, "g")
	case strings.HasSuffix(low, "m"):
		mult, low = 1<<20, strings.TrimSuffix(low, "m")
	case strings.HasSuffix(low, "k"):
		mult, low = 1<<10, strings.TrimSuffix(low, "k")
	}
	v, err := strconv.ParseInt(low, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return v * mult, nil
}
