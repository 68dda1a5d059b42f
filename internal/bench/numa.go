package bench

import (
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
)

// NUMAPolicy selects how bandwidth-benchmark buffers are placed in
// NUMA-visible (SNC) modes — one of the "multiple variables whose impact is
// not clear unless it is measured" the paper names (thread scheduling,
// memory pinning, NUMA-aware allocation).
type NUMAPolicy int

const (
	// NUMALocal allocates every thread's buffers in its own cluster
	// (first-touch behaviour; what the main suite uses).
	NUMALocal NUMAPolicy = iota
	// NUMANode0 allocates everything in cluster 0 (the naive "malloc on
	// the master thread" pattern).
	NUMANode0
	// NUMARoundRobin spreads buffers over all clusters regardless of the
	// accessing thread.
	NUMARoundRobin
)

func (p NUMAPolicy) String() string {
	switch p {
	case NUMALocal:
		return "local"
	case NUMANode0:
		return "node0"
	default:
		return "round-robin"
	}
}

// NUMAPoint is one measurement of the allocation-policy ablation.
type NUMAPoint struct {
	Policy  NUMAPolicy
	Threads int
	GBs     float64
}

// MeasureNUMAAblation runs the read kernel under the three allocation
// policies in an SNC mode. The headline structural effect: NUMANode0
// funnels all traffic through one cluster's three DDR channels, roughly
// halving aggregate bandwidth versus local allocation.
func MeasureNUMAAblation(cfg knl.Config, o Options, threads int) []NUMAPoint {
	if !cfg.Cluster.NUMAVisible() {
		panic("bench: NUMA ablation requires an SNC mode")
	}
	policies := []NUMAPolicy{NUMALocal, NUMANode0, NUMARoundRobin}
	key := o.KeyFor("numa-ablation", cfg).Int(threads).Key()
	pts := exp.RunMemo(o.Parallel, o.Memo, key,
		len(policies), func(_ *exp.MachinePool, pi int) NUMAPoint {
			pol := policies[pi]
			m := o.acquire(cfg)
			places := placesFor(knl.FillTiles, threads)
			fp := knl.NewFloorplan(cfg.YieldSeed)
			nClusters := cfg.Cluster.Clusters()
			bufs := make([][]int, len(places)) // per-thread buffer indices (pool below)
			var pool []bufHandle
			for r, pl := range places {
				aff := 0
				switch pol {
				case NUMALocal:
					aff = fp.TileCluster(cfg.Cluster, pl.Tile)
				case NUMANode0:
					aff = 0
				case NUMARoundRobin:
					aff = r % nClusters
				}
				for b := 0; b < o.BuffersPerThread; b++ {
					pool = append(pool, bufHandle{
						buf: m.Alloc.MustAlloc(knl.DDR, aff, int64(o.StreamLines)*knl.LineSize),
					})
					bufs[r] = append(bufs[r], len(pool)-1)
				}
			}
			rng := stats.NewRNG(o.Seed)
			picks := make([][]int, o.Iterations)
			for it := range picks {
				picks[it] = make([]int, threads)
				for r := range picks[it] {
					picks[it][r] = bufs[r][rng.Intn(len(bufs[r]))]
				}
			}
			setup := func(iter int) {
				for r := range places {
					m.FlushBuffer(pool[picks[iter][r]].buf)
				}
			}
			maxes := RunStreamWindows(m, places, o, setup, func(rank, iter int) machine.KernelOp {
				src := pool[picks[iter][rank]].buf
				return machine.KernelOp{Kind: machine.StreamRead, Src: src, N: src.NumLines(), Vector: true}
			})
			counted := float64(threads) * float64(o.StreamLines) * knl.LineSize
			vals := make([]float64, len(maxes))
			for i, d := range maxes {
				vals[i] = counted / d
			}
			o.release(m)
			return NUMAPoint{Policy: pol, Threads: threads, GBs: stats.Median(vals)}
		})
	return pts
}

type bufHandle struct{ buf memmode.Buffer }
