package main

import (
	"fmt"
	"os"
)

// checker counts wrong results. A result is wrong when its digest differs
// from the one pinned for its workload and seed, or from the first
// repetition of the same artifact in this run (which catches
// nondeterminism on seeds without pins).
type checker struct {
	workload string
	seed     uint64
	pinned   map[string]string // nil when the seed has no pins
	first    map[string]string
	order    []string

	attempted, failed int
	failures          []string
}

func newChecker(workload string, seed uint64) *checker {
	return &checker{workload: workload, seed: seed,
		pinned: pinnedDigests[workload][seed], first: map[string]string{}}
}

func (c *checker) add(arts []artifact) {
	for _, a := range arts {
		c.attempted++
		want, seen := c.first[a.name]
		if !seen {
			c.first[a.name] = a.digest
			c.order = append(c.order, a.name)
			want = a.digest
		}
		if c.pinned != nil {
			want = c.pinned[a.name]
		}
		if a.digest != want {
			c.failed++
			c.failures = append(c.failures, fmt.Sprintf("%s seed=%d %s: digest %s, want %s",
				c.workload, c.seed, a.name, a.digest, want))
		}
	}
}

// finish prints the digests seen (the lines pinned.go is made from) and
// fails every pinned artifact the run never produced.
func (c *checker) finish() {
	for _, n := range c.order {
		fmt.Fprintf(os.Stderr, "digest %s %d %s %s\n", c.workload, c.seed, n, c.first[n])
	}
	for n := range c.pinned {
		if _, ok := c.first[n]; !ok {
			c.attempted++
			c.failed++
			c.failures = append(c.failures, fmt.Sprintf("%s seed=%d %s: pinned but not produced", c.workload, c.seed, n))
		}
	}
}

// checkCounts fails every exact per-layer count that differs from its pin.
func checkCounts(r *result) {
	for name, want := range pinnedCounts {
		r.attempted++
		if got, ok := r.metrics[name]; !ok || got.Value != want {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("count %s = %v, want %v", name, got.Value, want))
		}
	}
}
