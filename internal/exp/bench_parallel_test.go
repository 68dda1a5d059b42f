package exp_test

import (
	"runtime"
	"testing"

	"knlcap/internal/bench"
	"knlcap/internal/knl"
	"knlcap/internal/memo"
)

// BenchmarkSweepParallel measures the wall-clock effect of fanning a
// Figure 9 style triad sweep over the worker pool: the serial and
// GOMAXPROCS variants run the identical point set, so the ratio of their
// ns/op is the experiment engine's speedup on this host (~1x on a 1-core
// runner, approaching the core count on larger machines).
func BenchmarkSweepParallel(b *testing.B) {
	cfg := knl.DefaultConfig()
	o := bench.DefaultOptions().Quick()
	counts := []int{1, 4, 8, 16}
	run := func(parallel int) func(b *testing.B) {
		return func(b *testing.B) {
			o := o
			o.Parallel = parallel
			b.ReportMetric(float64(parallel), "workers")
			for i := 0; i < b.N; i++ {
				pts := bench.TriadSweep(cfg, o, knl.FillTiles, counts)
				if len(pts) != 2*len(counts) {
					b.Fatalf("triad sweep returned %d points", len(pts))
				}
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("gomaxprocs", run(runtime.GOMAXPROCS(0)))
}

// BenchmarkContentionSweep pins the wall-clock cost of the store walk and
// the signal-watch juncture: the 1:N contention sweep (RFO invalidate
// fan-out per accessor) and the ping-pong congestion run (flag stores
// racing KernelWaitWordGE). bench_baseline.sh records it in
// BENCH_sweep.json.
func BenchmarkContentionSweep(b *testing.B) {
	cfg := knl.DefaultConfig()
	ns := []int{1, 4, 8, 16, 32}
	o := bench.DefaultOptions().Quick()
	o.Parallel = 1
	o.NoJitter = true
	for i := 0; i < b.N; i++ {
		bench.MeasureContention(cfg, o, ns)
		bench.MeasureCongestion(cfg, o, 8)
	}
}

// BenchmarkLatencySweep pins the wall-clock effect of the two perf layers of
// this PR on the Table I latency sweep: cold (exact simulation), converged
// (jitter off, ConvergeAfter gate extrapolating settled passes) and warm
// (answered from the result cache without simulating). The acceptance bar
// is cold/converged >= 5x; warm should be orders of magnitude faster still.
func BenchmarkLatencySweep(b *testing.B) {
	cfg := knl.DefaultConfig()
	base := bench.DefaultOptions()
	base.Parallel = 1

	// 0 remote targets = the full Table I default of 8, i.e. the real
	// artifact sweep (~40 chase points).
	b.Run("cold", func(b *testing.B) {
		o := base
		o.NoJitter = true
		for i := 0; i < b.N; i++ {
			bench.MeasureCacheLatencies(cfg, o, 0)
		}
	})
	b.Run("converged", func(b *testing.B) {
		o := base
		o.NoJitter = true
		o.ConvergeAfter = 3
		for i := 0; i < b.N; i++ {
			bench.MeasureCacheLatencies(cfg, o, 0)
		}
	})
	b.Run("warm", func(b *testing.B) {
		o := base
		o.NoJitter = true
		o.Memo = memo.NewMemory()
		bench.MeasureCacheLatencies(cfg, o, 0) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bench.MeasureCacheLatencies(cfg, o, 0)
		}
	})
}
