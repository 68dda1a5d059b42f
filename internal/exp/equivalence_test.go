package exp_test

import (
	"reflect"
	"testing"

	"knlcap/internal/bench"
	"knlcap/internal/cache"
	"knlcap/internal/coll"
	"knlcap/internal/core"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/msort"
	"knlcap/internal/stats"
)

// TestParallelEquivalence is the dynamic half of the determinism story: the
// experiment results of the main evaluation artifacts must be bit-identical
// between -parallel 1 (today's serial loops) and a multi-worker pool,
// regardless of how the host scheduler interleaves the points. Run in ci.sh
// under -race, it also proves the worker pool itself is data-race free.
func TestParallelEquivalence(t *testing.T) {
	cfg := knl.DefaultConfig() // SNC4-flat, the configuration of Figs. 4 and 9
	base := bench.DefaultOptions().Quick()

	withPar := func(o bench.Options, p int) bench.Options {
		o.Parallel = p
		return o
	}

	t.Run("TableI", func(t *testing.T) {
		// Table I assembled from its sections with reduced knobs: remote
		// latency targets, one bandwidth size, few contention points.
		measure := func(p int) bench.TableI {
			o := withPar(base, p)
			return bench.TableI{
				Latency:    bench.MeasureCacheLatencies(cfg, o, 2),
				Bandwidth:  bench.MeasureCacheBandwidths(cfg, o, []int{128}),
				Congestion: bench.MeasureCongestion(cfg, o, 4),
				Contention: bench.MeasureContention(cfg, o, []int{1, 4, 8}),
			}
		}
		serial := measure(1)
		parallel := measure(4)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Table I differs between -parallel 1 and -parallel 4:\nserial:   %+v\nparallel: %+v",
				serial, parallel)
		}
	})

	t.Run("Fig4", func(t *testing.T) {
		o := base
		o.Averages = 4
		states := []cache.State{cache.Modified, cache.Exclusive, cache.Invalid}
		serial := bench.MeasurePerCoreLatencies(cfg, withPar(o, 1), states)
		parallel := bench.MeasurePerCoreLatencies(cfg, withPar(o, 4), states)
		if !reflect.DeepEqual(serial, parallel) {
			t.Error("Figure 4 per-core latencies differ between -parallel 1 and -parallel 4")
		}
	})

	t.Run("Fig9", func(t *testing.T) {
		counts := []int{1, 4, 8}
		serial := bench.TriadSweep(cfg, withPar(base, 1), knl.FillTiles, counts)
		parallel := bench.TriadSweep(cfg, withPar(base, 4), knl.FillTiles, counts)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Figure 9 triad sweep differs between -parallel 1 and -parallel 4:\nserial:   %+v\nparallel: %+v",
				serial, parallel)
		}
	})

	t.Run("TableII", func(t *testing.T) {
		// One column's fan-out of max-median and STREAM-peak points, each
		// on its worker's pooled machine, plus the eight pooled latency
		// chases of SNC4.
		o := base
		o.Iterations = 4
		counts := []int{2, 8}
		scheds := []knl.Schedule{knl.FillTiles, knl.Compact}
		serial := bench.MeasureTableII(cfg, withPar(o, 1), counts, scheds)
		parallel := bench.MeasureTableII(cfg, withPar(o, 3), counts, scheds)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Table II differs between -parallel 1 and -parallel 3:\nserial:   %+v\nparallel: %+v",
				serial, parallel)
		}
	})

	t.Run("Fig10", func(t *testing.T) {
		// The overhead fit and one small panel, each sort on its worker's
		// pooled machine.
		model := core.Default()
		measure := func(p int) (core.OverheadModel, []msort.Figure10Point) {
			oh := msort.FitOverheadMemo(cfg, model, knl.DDR, []int{1, 4, 16}, p, nil)
			return oh, msort.Figure10Memo(cfg, model, oh, 256, knl.DDR, []int{1, 4, 16}, p, nil)
		}
		sOH, serial := measure(1)
		pOH, parallel := measure(3)
		if sOH != pOH || !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Figure 10 differs between -parallel 1 and -parallel 3:\nserial:   %+v %+v\nparallel: %+v %+v",
				sOH, serial, pOH, parallel)
		}
	})

	t.Run("Fig6", func(t *testing.T) {
		// Two thread counts of the barrier figure: six collective points.
		o := base
		o.Iterations = 8
		o.WindowNs = 4e5
		model := core.Default()
		counts := []int{4, 16}
		serial := coll.MeasureFigure(cfg, model, withPar(o, 1), coll.Barrier, knl.Scatter, counts)
		parallel := coll.MeasureFigure(cfg, model, withPar(o, 3), coll.Barrier, knl.Scatter, counts)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Figure 6 differs between -parallel 1 and -parallel 3:\nserial:   %+v\nparallel: %+v",
				serial, parallel)
		}
	})

	t.Run("StateDigest", func(t *testing.T) {
		// Beyond result equality: the full machine state after a seeded
		// workload, across every cluster x memory mode, digested per point.
		var cfgs []knl.Config
		for _, mm := range []knl.MemoryMode{knl.Flat, knl.CacheMode, knl.Hybrid} {
			cfgs = append(cfgs, knl.AllConfigs(mm)...)
		}
		point := func(_ *exp.MachinePool, i int) uint64 {
			return digestPoint(cfgs[i], exp.PointSeed(20260806, i))
		}
		serial := exp.Run(1, len(cfgs), point)
		parallel := exp.Run(4, len(cfgs), point)
		for i := range cfgs {
			if serial[i] != parallel[i] {
				t.Errorf("%s: StateDigest %#016x serial vs %#016x parallel",
					cfgs[i].Name(), serial[i], parallel[i])
			}
		}
	})
}

// digestPoint runs a small seeded mixed workload on its own machine and
// returns the digest of the final simulated state.
func digestPoint(cfg knl.Config, seed uint64) uint64 {
	m := machine.NewSeededWithParams(cfg, machine.DefaultParams(), seed)
	rng := stats.NewRNG(seed)
	buf := m.Alloc.MustAlloc(knl.DDR, 0, 64*knl.LineSize)
	flag := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	places := knl.Pin(knl.FillTiles, knl.ActiveTiles, 8)
	for r, pl := range places {
		r := r
		li := rng.Intn(buf.NumLines())
		s := &machine.Script{}
		for it := 0; it < 8; it++ {
			s.Load(buf, (li+it)%buf.NumLines())
			if it%3 == r%3 {
				s.Store(buf, (li+2*it)%buf.NumLines())
			}
		}
		s.AddWord(flag, 0, 1, nil)
		m.SpawnKernel(pl, s.Program())
	}
	poll := &machine.Script{}
	poll.WaitWordGE(flag, 0, uint64(len(places)), nil)
	m.SpawnKernel(places[0], poll.Program())
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	return m.StateDigest()
}
