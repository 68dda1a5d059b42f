package bench

import (
	"math"

	"knlcap/internal/cache"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/memo"
	"knlcap/internal/stats"
)

// chase measures BenchIT-style pointer-chasing latency on machine m from
// the given core: Averages averages, each of Passes passes of ChaseLen
// dependent accesses over the buffer, re-establishing the cache state with
// prime before every pass. It returns the per-access latency sample.
//
// The kernel runs as a spawned chase, with the host callbacks doing the
// work between passes: prime, draw the permutation, fold the per-pass
// latency into the running average. With ConvergeAfter k > 0 they also run
// the convergence gate (converge.go): exact simulated passes until k
// consecutive passes agree, replayed passes after. The gate needs every
// line visited equally often per pass, i.e. ChaseLen a multiple of the
// line count; otherwise, and with k <= 0, no hook is installed and every
// pass is simulated. The bench RNG draws one permutation per pass either
// way — including for replayed passes — so the random stream, and with it
// every subsequent draw, is identical to the ungated loop's.
//
// The sample slice and the per-pass permutation are allocated once up
// front; the ungated loop allocates nothing per pass (PermInto refills the
// scratch permutation in place).
func chase(m *machine.Machine, core int, b memmode.Buffer, o Options,
	prime func()) Sample {
	rng := stats.NewRNG(o.Seed ^ 0xc1a5e)
	nl := b.NumLines()
	avgs := make([]float64, 0, o.Averages)
	perm := make([]int, nl)
	place := knl.Place{Tile: core / knl.CoresPerTile, Core: core}
	k := o.ConvergeAfter
	if o.ChaseLen%nl != 0 {
		k = 0
	}
	visits := o.ChaseLen / nl
	var tr opTrace
	var cur, prev *chaseProfile
	if k > 0 {
		cur, prev = &chaseProfile{}, &chaseProfile{}
	}
	var prevVal, start, vt, total float64
	prevEnd := m.Env.Now()
	run, a, p := 0, 0, 0
	settled := false

	// endPass closes one pass of the (Averages x Passes) accounting grid.
	endPass := func() {
		if p++; p == o.Passes {
			avgs = append(avgs, total/float64(o.Passes))
			total, p = 0, 0
			a++
		}
	}

	ops := machine.ChaseOps{
		B: b, Perm: perm, Len: o.ChaseLen,
		NextPass: func() bool {
			for {
				if a >= o.Averages {
					if k > 0 {
						m.Env.OnOp = nil
					}
					return false
				}
				if settled {
					// Extrapolate this pass from the settled profile on the
					// virtual clock; no simulation happens.
					rng.PermInto(perm)
					s := vt
					vt = prev.replay(vt, perm, o.ChaseLen, nl, visits)
					total += (vt - s) / float64(o.ChaseLen)
					endPass()
					continue
				}
				prime()
				rng.PermInto(perm)
				if k > 0 {
					tr.reset()
					start = m.Env.Now()
				}
				return true
			}
		},
		PassDone: func(elapsed float64) {
			val := elapsed / float64(o.ChaseLen)
			total += val
			if k > 0 {
				end := m.Env.Now()
				// start == prevEnd guards against prime consuming simulated
				// time, which replay (which skips prime) could not reproduce.
				ok := start == prevEnd && tr.selfCheck(start, end)
				cur.build(&tr, perm, nl, visits)
				switch {
				case ok && run > 0 && math.Float64bits(val) == math.Float64bits(prevVal) && cur.equal(prev):
					run++
				case ok:
					run = 1
				default:
					run = 0
				}
				cur, prev = prev, cur
				prevVal, prevEnd = val, end
				if run >= k {
					settled = true
					vt = end
				}
			}
			endPass()
		},
	}
	if k > 0 {
		ops.AccessDone = tr.mark
	}
	proc := m.SpawnChase(place, ops)
	if k > 0 {
		tr.p = proc
		m.Env.OnOp = tr.onOp
	}
	if _, err := m.Run(); err != nil {
		panic(err)
	}
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
			po := o
			po.pool = pool
			m := po.acquire(cfg)
			b := m.Alloc.MustAlloc(knl.DDR, 0, int64(o.ChaseLen)*knl.LineSize)
			prime := func() { m.Prime(b, pts[i].owner, pts[i].st) }
			med := chase(m, 0, b, po, prime).Median
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
			po := o
			po.pool = pool
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
			s := chase(m, 0, b, po, prime)
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
		prime := func() {} // keep the side cache warm; flush only L1/L2
		rng := stats.NewRNG(o.Seed)
		nl := b.NumLines()
		avgs := make([]float64, 0, o.Averages)
		// Per access: draw the line, flush it, load it.
		a, p, i := 0, 0, 0
		var total, start float64
		inPass := false
		m.SpawnKernel(knl.Place{}, func(now float64, _ uint64) (machine.KernelOp, bool) {
			if inPass && i == o.ChaseLen {
				total += (now - start) / float64(o.ChaseLen)
				inPass = false
				if p++; p == o.Passes {
					avgs = append(avgs, total/float64(o.Passes))
					total, p = 0, 0
					a++
				}
			}
			if !inPass {
				if a >= o.Averages {
					return machine.KernelOp{}, false
				}
				prime()
				start, i = now, 0
				inPass = true
			}
			li := rng.Intn(nl)
			m.FlushLine(b.Line(li))
			i++
			return machine.KernelOp{Kind: machine.KernelLoad, B: b, Li: li}, true
		})
		if _, err := m.Run(); err != nil {
			panic(err)
		}
		s := NewSample(avgs)
		lo, hi := s.CILo, s.CIHi
		out.Cache = Range{Lo: lo, Hi: hi}
		o.release(m)
	} else {
		// Flat mode: in SNC modes the band spans local vs remote cluster
		// allocations; transparent modes give a single value.
		n := 1
		if cfg.Cluster.NUMAVisible() {
			n = cfg.Cluster.Clusters()
		}
		meds := exp.Run(o.Parallel, 2*n, func(_ *exp.MachinePool, i int) float64 {
			kind := knl.DDR
			if i%2 == 1 {
				kind = knl.MCDRAM
			}
			m := o.acquire(cfg)
			b := m.Alloc.MustAlloc(kind, i/2, int64(o.ChaseLen)*knl.LineSize)
			med := chase(m, 0, b, o, func() { m.FlushBuffer(b) }).Median
			o.release(m)
			return med
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
