// Package bench implements the paper's benchmarking methodology (Sections
// III-V) against the simulated machine: BenchIT-style pointer-chasing
// latency, cache-to-cache bandwidth by state and placement, 1:N contention,
// P2P congestion, and the STREAM-style memory kernels with thread sweeps —
// everything needed to regenerate Tables I and II and Figures 4, 5 and 9.
//
// All benchmarks report medians (the paper: "We report medians that are
// within the 10% of the 95% confidence intervals"); multi-threaded
// benchmarks synchronize iterations with start windows and record the
// maximum value measured per iteration, like the Xeon Phi benchmark suite.
package bench

import (
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memo"
	"knlcap/internal/stats"
)

// Options scale the measurement effort. The paper uses 5000 averages of
// 1024 passes (latency) and 1000 iterations (bandwidth); the defaults here
// are scaled down to keep a full table regeneration interactive on one
// host core — the protocol is identical and the parameters are flags on
// the cmd binaries.
type Options struct {
	// Averages is the number of averaged measurements forming the sample
	// whose median is reported (BenchIT "5000 averages").
	Averages int
	// Passes is the number of passes per average (BenchIT "1024 passes",
	// each of ChaseLen accesses).
	Passes int
	// ChaseLen is the pointer-chain length per pass (BenchIT: 32).
	ChaseLen int
	// Iterations is the per-configuration iteration count of the bandwidth
	// and collective benchmarks (paper: 1000).
	Iterations int
	// WindowNs is the synchronized-start window length for multi-threaded
	// iterations; it must exceed the slowest iteration.
	WindowNs float64
	// Seed drives randomized buffer selection.
	Seed uint64
	// StreamLines is the per-thread, per-buffer size (in cache lines) of
	// the memory-bandwidth kernels.
	StreamLines int
	// BuffersPerThread is the pool size for random buffer selection
	// (paper: "random buffers selected from a larger one").
	BuffersPerThread int
	// Parallel is the worker-pool size for fanning independent measurement
	// points (each with its own machine) over host cores; <= 0 means
	// GOMAXPROCS, 1 runs the points serially in index order. Results are
	// bit-identical at every setting.
	//knl:nokey worker-count equivalence is proven by TestParallelEquivalence
	Parallel int

	// ConvergeAfter, when > 0, lets the single-threaded measurement loops
	// (pointer chases and per-iteration copy/multiline kernels) stop early
	// once ConvergeAfter consecutive passes are bit-identical — both in
	// reported value and in the underlying per-access wait profile — and
	// extrapolate the remaining passes by replaying that profile on a
	// virtual clock. The extrapolation reproduces the simulator's exact
	// float64 arithmetic, so results are bit-identical to ConvergeAfter=0
	// (the exact legacy path); a dedicated A/B test asserts it. With
	// jittered machines (the default) passes never repeat and the gate
	// simply never fires; combine with NoJitter to benefit. Windowed
	// multi-threaded kernels (contention, congestion, STREAM, collectives)
	// ignore the option: their iterations legitimately differ.
	//knl:nokey convergence on/off equivalence is proven by TestConvergenceEquivalence
	ConvergeAfter int
	// NoJitter builds the measurement machines with JitterFrac = 0, making
	// passes deterministic enough for ConvergeAfter to fire. Medians move
	// to the jitter-free protocol sums; distribution widths (CIs, Fig. 4
	// spread) collapse, so keep jitter on when those matter.
	NoJitter bool
	// Memo, when non-nil, caches sweep results content-addressed by the
	// full measurement input (machine parameters, seed, workload, options).
	// A nil cache means every sweep simulates.
	//knl:nokey the cache handle selects where results live, never their values
	Memo *memo.Cache

	// pool, when set, recycles machines across the measurement points of a
	// sweep. The sweep drivers install their worker's (exp.Run), so a
	// pool is never shared between concurrent points; by the Machine.Reset
	// contract the results stay bit-identical to unpooled runs.
	//knl:nokey pooled-vs-fresh digest identity is proven by the exp pool tests
	pool *exp.MachinePool
}

// params returns the protocol constants the options measure under:
// the calibrated defaults, with jitter disabled when NoJitter is set.
func (o Options) params() machine.Params {
	p := machine.DefaultParams()
	if o.NoJitter {
		p.JitterFrac = 0
	}
	return p
}

// KeyFor starts a memo key for one sweep of this benchmark configuration:
// the workload identifier, the machine configuration and effective protocol
// constants, and every Options field that changes measured values. Parallel
// and ConvergeAfter are deliberately excluded — results are proven
// bit-identical across their settings (see the equivalence tests), so runs
// at different worker counts or convergence gates share cache entries.
// NoJitter needs no separate fold: it acts through params().JitterFrac.
func (o Options) KeyFor(workload string, cfg knl.Config) *memo.KeyWriter {
	w := memo.NewKey(workload)
	w = cfg.FoldKey(w)
	w = o.params().FoldKey(w)
	return w.
		Int(o.Averages).Int(o.Passes).Int(o.ChaseLen).Int(o.Iterations).
		Float(o.WindowNs).Uint(o.Seed).Int(o.StreamLines).Int(o.BuffersPerThread)
}

// withPool returns o measuring on the machines of pool: every sweep point
// installs its worker's pool this way before it acquires a machine.
func (o Options) withPool(pool *exp.MachinePool) Options {
	o.pool = pool
	return o
}

// acquire hands out the point's machine for cfg — recycled when a sweep
// installed a pool, freshly built otherwise.
func (o Options) acquire(cfg knl.Config) *machine.Machine {
	return o.pool.Get(cfg, o.params(), cfg.YieldSeed)
}

// release returns a machine taken from acquire once its point is done.
// Only machines whose simulation ran to completion may be released — Reset
// refuses non-quiescent machines.
func (o Options) release(m *machine.Machine) { o.pool.Put(m) }

// DefaultOptions returns measurement parameters sized for interactive runs.
func DefaultOptions() Options {
	return Options{
		Averages:         25,
		Passes:           4,
		ChaseLen:         32,
		Iterations:       60,
		WindowNs:         2e6,
		Seed:             1,
		StreamLines:      256,
		BuffersPerThread: 4,
		Parallel:         1,
	}
}

// Quick returns a minimal-effort variant for unit tests.
func (o Options) Quick() Options {
	o.Averages = 8
	o.Passes = 2
	o.Iterations = 10
	o.StreamLines = 128
	o.BuffersPerThread = 2
	return o
}

// Sample is a measured distribution with its reduction.
type Sample struct {
	Values []float64
	Median float64
	CILo   float64 // 95% confidence interval of the median
	CIHi   float64
}

// NewSample reduces raw values into a Sample.
func NewSample(values []float64) Sample {
	s := Sample{Values: values}
	if len(values) > 0 {
		s.Median = stats.Median(values)
		s.CILo, s.CIHi = stats.MedianCI(values, 0.95)
	}
	return s
}

// Range is a min-max band, as reported for the distance-dependent cells of
// Tables I and II.
type Range struct{ Lo, Hi float64 }

// RangeOf computes the range of xs.
func RangeOf(xs []float64) Range {
	if len(xs) == 0 {
		return Range{}
	}
	return Range{Lo: stats.Min(xs), Hi: stats.Max(xs)}
}

// Contains reports whether v lies within the range (inclusive).
func (r Range) Contains(v float64) bool { return v >= r.Lo && v <= r.Hi }

// placesFor pins n threads with the schedule on the standard chip.
func placesFor(sched knl.Schedule, n int) []knl.Place {
	return knl.Pin(sched, knl.ActiveTiles, n)
}
