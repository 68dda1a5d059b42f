package bench

import (
	"knlcap/internal/cache"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/memo"
	"knlcap/internal/stats"
)

// chase measures BenchIT-style pointer-chasing latency on machine m from
// core 0: Averages averages, each of Passes passes of ChaseLen
// dependent accesses over the buffer, re-establishing the cache state with
// prime and drawing a fresh visiting order before every pass. It returns
// the per-access latency sample.
//
// With ConvergeAfter > 0 the pass loop's gate (converge.go) replays the
// passes after ConvergeAfter agreeing ones, provided ChaseLen is a
// multiple of the line count. The permutation is drawn for replayed passes
// too, so the random stream is identical to the exact loop's.
func chase(m *machine.Machine, b memmode.Buffer, o Options, prime func()) Sample {
	rng := stats.NewRNG(o.Seed ^ 0xc1a5e)
	nl := b.NumLines()
	perm := make([]int, nl)
	return passLoop{
		k:     o.ConvergeAfter,
		setup: prime,
		draw:  func() { rng.PermInto(perm) },
		op:    machine.KernelOp{Kind: machine.KernelLoad, B: b},
		line:  func(i int) int { return perm[i%nl] },
	}.sample(m, o)
}

// sample runs l as BenchIT's grid — Averages averages of Passes passes of
// ChaseLen ops — and returns the sample of per-access averages.
func (l passLoop) sample(m *machine.Machine, o Options) Sample {
	avgs := make([]float64, 0, o.Averages)
	total, p, passes := 0.0, 0, o.Passes
	l.passes, l.n = o.Averages*passes, o.ChaseLen
	l.record = func(v float64) {
		total += v
		if p++; p == passes {
			avgs = append(avgs, total/float64(passes))
			total, p = 0, 0
		}
	}
	l.run(m)
	return NewSample(avgs)
}

// CacheLatencies holds the latency section of Table I for one configuration.
type CacheLatencies struct {
	Config knl.Config
	// LocalL1 is the L1-resident load latency.
	LocalL1 float64
	// Tile* are same-tile (sibling core) latencies by state.
	TileM, TileE, TileSF float64
	// Remote* are min-max bands over remote tiles by state. RemoteSF is
	// the combined band (the table's "S,F" row); RemoteS and RemoteF
	// distinguish which copy the request is served from (the paper reports
	// 5-15% differences between them).
	RemoteM, RemoteE, RemoteSF Range
	RemoteS, RemoteF           Range
}

// MeasureCacheLatencies regenerates the Table I latency rows for cfg.
// remoteTargets limits how many remote cores are sampled for the bands
// (<=0 means a representative set of 8).
func MeasureCacheLatencies(cfg knl.Config, o Options, remoteTargets int) CacheLatencies {
	if remoteTargets <= 0 {
		remoteTargets = 8
	}
	out := CacheLatencies{Config: cfg}

	// Every measurement point is one (owner, state) pointer chase on a fresh
	// machine; list them all, fan out, then assemble rows and bands from the
	// index-ordered results.
	type pt struct {
		owner int
		st    cache.State
	}
	pts := []pt{
		{0, cache.Exclusive}, // LocalL1
		{1, cache.Modified},  // TileM
		{1, cache.Exclusive}, // TileE
		{1, cache.Shared},    // TileSF
	}
	// Remote bands: sample owner cores spread over the die.
	step := (knl.NumCores - 2) / remoteTargets
	if step < 2 {
		step = 2
	}
	remoteStart := len(pts)
	for owner := 2; owner < knl.NumCores; owner += step {
		pts = append(pts,
			pt{owner, cache.Modified},
			pt{owner, cache.Exclusive},
			pt{owner, cache.Shared},
			pt{owner, cache.Forward})
	}
	key := o.KeyFor("table1-latency", cfg).Int(remoteTargets).Key()
	meds := exp.RunMemo(o.Parallel, o.Memo, key, len(pts),
		func(pool *exp.MachinePool, i int) float64 {
			po := o.withPool(pool)
			m := po.acquire(cfg)
			b := m.Alloc.MustAlloc(knl.DDR, 0, int64(o.ChaseLen)*knl.LineSize)
			prime := func() { m.Prime(b, pts[i].owner, pts[i].st) }
			med := chase(m, b, po, prime).Median
			po.release(m)
			return med
		})

	out.LocalL1 = meds[0]
	out.TileM = meds[1]
	out.TileE = meds[2]
	out.TileSF = meds[3]
	var rm, re, rs, rf []float64
	for i := remoteStart; i < len(meds); i += 4 {
		rm = append(rm, meds[i])
		re = append(re, meds[i+1])
		rs = append(rs, meds[i+2])
		rf = append(rf, meds[i+3])
	}
	out.RemoteM = RangeOf(rm)
	out.RemoteE = RangeOf(re)
	out.RemoteS = RangeOf(rs)
	out.RemoteF = RangeOf(rf)
	out.RemoteSF = RangeOf(append(append([]float64(nil), rs...), rf...))
	return out
}

// PerCoreLatency is one Figure 4 data point.
type PerCoreLatency struct {
	Core    int
	State   cache.State
	Latency float64
}

// MeasurePerCoreLatencies regenerates Figure 4: the latency of cache-line
// transfers between core 0 and every other core for the given states
// (M, E and I in the paper; I means the line is uncached and comes from
// memory).
func MeasurePerCoreLatencies(cfg knl.Config, o Options, states []cache.State) []PerCoreLatency {
	const owners = knl.NumCores - 1
	kw := o.KeyFor("fig4-percore", cfg).Int(len(states))
	for _, st := range states {
		kw = kw.Int(int(st))
	}
	pts := exp.RunMemo(o.Parallel, o.Memo, kw.Key(), len(states)*owners,
		func(pool *exp.MachinePool, i int) PerCoreLatency {
			po := o.withPool(pool)
			st := states[i/owners]
			owner := 1 + i%owners
			m := po.acquire(cfg)
			b := m.Alloc.MustAlloc(knl.DDR, 0, int64(o.ChaseLen)*knl.LineSize)
			var prime func()
			if st == cache.Invalid {
				prime = func() { m.FlushBuffer(b) }
			} else {
				prime = func() { m.Prime(b, owner, st) }
			}
			s := chase(m, b, po, prime)
			po.release(m)
			return PerCoreLatency{Core: owner, State: st, Latency: s.Median}
		})
	return pts
}

// MemLatencies holds the Table II latency rows for one configuration.
type MemLatencies struct {
	Config knl.Config
	DRAM   Range // band across NUMA placements (single value width 0 for UMA)
	MCDRAM Range
	Cache  Range // cache-mode latency (only when cfg.Memory is CacheMode)
}

// MeasureMemLatencies regenerates the Table II latency rows: uncached
// pointer chasing against DRAM and MCDRAM (flat mode), or against the
// MCDRAM side cache mix (cache mode).
func MeasureMemLatencies(cfg knl.Config, o Options) MemLatencies {
	key := o.KeyFor("table2-latency", cfg).Key()
	if v, ok := memo.Lookup[MemLatencies](o.Memo, key); ok {
		return v
	}
	out := MemLatencies{Config: cfg}
	if cfg.Memory == knl.CacheMode {
		// Working set twice the side cache, randomly visited: the median
		// reflects the hit/miss mix.
		m := o.acquire(cfg)
		b := m.Alloc.MustAlloc(knl.DDR, 0, 2*cfg.MCDRAMCacheBytes())
		rng := stats.NewRNG(o.Seed)
		nl := b.NumLines()
		// Per access: draw the line, flush it, load it. No setup keeps the
		// side cache warm between passes.
		s := passLoop{
			op: machine.KernelOp{Kind: machine.KernelLoad, B: b},
			line: func(int) int {
				li := rng.Intn(nl)
				m.FlushLine(b.Line(li))
				return li
			},
		}.sample(m, o)
		out.Cache = Range{Lo: s.CILo, Hi: s.CIHi}
		o.release(m)
	} else {
		// Flat mode: in SNC modes the band spans local vs remote cluster
		// allocations; transparent modes give a single value.
		n := 1
		if cfg.Cluster.NUMAVisible() {
			n = cfg.Cluster.Clusters()
		}
		meds := exp.Run(o.Parallel, 2*n, func(pool *exp.MachinePool, i int) float64 {
			kind := knl.DDR
			if i%2 == 1 {
				kind = knl.MCDRAM
			}
			return memLatency(cfg, o.withPool(pool), kind, i/2)
		})
		var dr, mc []float64
		for i := 0; i < len(meds); i += 2 {
			dr = append(dr, meds[i])
			mc = append(mc, meds[i+1])
		}
		out.DRAM = RangeOf(dr)
		out.MCDRAM = RangeOf(mc)
	}
	memo.Store(o.Memo, key, out)
	return out
}

// memLatency is one flat-mode Table II latency point: the uncached pointer
// chase against a buffer of kind allocated in cluster aff.
func memLatency(cfg knl.Config, o Options, kind knl.MemKind, aff int) float64 {
	m := o.acquire(cfg)
	b := m.Alloc.MustAlloc(kind, aff, int64(o.ChaseLen)*knl.LineSize)
	med := chase(m, b, o, func() { m.FlushBuffer(b) }).Median
	o.release(m)
	return med
}
